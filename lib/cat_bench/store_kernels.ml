module Keys = Hwsim.Keys
module Activity = Hwsim.Activity

type pattern = Cyclic | Random_reuse

type config = {
  buffer_bytes : int;
  store_fraction : float;
  resident : bool;
  pattern : pattern;
  label : string;
}

let accesses = 8192

let configs =
  (* The default L1 is 4 KiB; three regimes: resident (2 KiB, all
     store hits), streaming (32 KiB cyclic: write-allocate then
     write back, one-to-one), and random reuse over 8 KiB (lines are
     re-dirtied several times per eviction, so writebacks decouple
     from write misses — without this regime WB is proportional to
     WM and the basis degenerates). *)
  List.concat_map
    (fun (buffer_bytes, resident, pattern, tag) ->
      List.map
        (fun store_fraction ->
          {
            buffer_bytes;
            store_fraction;
            resident;
            pattern;
            label = Printf.sprintf "%s/f%.2f" tag store_fraction;
          })
        [ 0.25; 0.5; 1.0 ])
    [ (2048, true, Cyclic, "L1"); (32768, false, Cyclic, "stream");
      (8192, false, Random_reuse, "random") ]

let row_activity config =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let lines = config.buffer_bytes / 64 in
  let rng = Numkit.Rng.of_string ("cat-stores/" ^ config.label) in
  let slot i =
    match config.pattern with
    | Cyclic -> i mod lines
    | Random_reuse -> Numkit.Rng.int rng lines
  in
  let addr i = slot i * 64 in
  (* Deterministic store/load interleave matching the fraction:
     store on every k-th access with k = 1/f rounded. *)
  let period = max 1 (int_of_float (Float.round (1.0 /. config.store_fraction))) in
  let run () =
    for i = 0 to accesses - 1 do
      if i mod period = 0 then ignore (Cachesim.Hierarchy.store h (addr i))
      else ignore (Cachesim.Hierarchy.load h (addr i))
    done
  in
  (* Warmup lap over the buffer, then reset and measure. *)
  for i = 0 to lines - 1 do
    ignore (Cachesim.Hierarchy.load h (i * 64))
  done;
  Cachesim.Hierarchy.reset_counters h;
  run ();
  let c = Cachesim.Hierarchy.counters h in
  let w = Cachesim.Hierarchy.write_counters h in
  let a = Activity.create () in
  Activity.set a Keys.cache_w_l1_dh (float_of_int w.Cachesim.Hierarchy.w_l1_hit);
  Activity.set a Keys.cache_w_l1_dm (float_of_int w.Cachesim.Hierarchy.w_l1_miss);
  Activity.set a Keys.cache_writebacks (float_of_int w.Cachesim.Hierarchy.w_writebacks);
  Activity.set a Keys.cache_l1_dh (float_of_int c.Cachesim.Hierarchy.l1_hit);
  Activity.set a Keys.cache_l1_dm (float_of_int c.Cachesim.Hierarchy.l1_miss);
  Activity.set a Keys.cache_l2_dh (float_of_int c.Cachesim.Hierarchy.l2_hit);
  Activity.set a Keys.cache_l2_dm (float_of_int c.Cachesim.Hierarchy.l2_miss);
  Activity.set a Keys.cache_loads (float_of_int c.Cachesim.Hierarchy.accesses);
  Activity.set a Keys.core_stores
    (float_of_int (w.Cachesim.Hierarchy.w_l1_hit + w.Cachesim.Hierarchy.w_l1_miss));
  let n = float_of_int accesses in
  Activity.set a Keys.branch_cond_exec n;
  Activity.set a Keys.branch_cond_retired n;
  Activity.set a Keys.branch_taken n;
  Activity.set a Keys.core_int_ops (2.0 *. n);
  Activity.set a Keys.core_instructions (4.0 *. n);
  Activity.set a Keys.core_uops (4.4 *. n);
  Activity.set a Keys.core_cycles
    ((3.0 *. n) +. (12.0 *. float_of_int c.Cachesim.Hierarchy.l1_miss));
  a

let rows = Once.once (fun () -> Array.of_list (List.map row_activity configs))

let row_labels = Array.of_list (List.map (fun c -> c.label) configs)

let ideals () =
  let read key = Array.map (fun a -> Activity.get a key) (rows ()) in
  [ { Ideal.label = "WH"; key = Keys.cache_w_l1_dh; vector = read Keys.cache_w_l1_dh };
    { Ideal.label = "WM"; key = Keys.cache_w_l1_dm; vector = read Keys.cache_w_l1_dm };
    { Ideal.label = "WB"; key = Keys.cache_writebacks;
      vector = read Keys.cache_writebacks } ]

let signatures () =
  [ ("Store L1 Hits.", [ ("WH", 1.) ]);
    ("Store L1 Misses.", [ ("WM", 1.) ]);
    ("L1 Writebacks.", [ ("WB", 1.) ]);
    ("All Stores.", [ ("WH", 1.); ("WM", 1.) ]);
    ("L2 Write Traffic.", [ ("WM", 1.); ("WB", 1.) ]) ]
