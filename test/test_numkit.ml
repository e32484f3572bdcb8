(* Unit and property tests for the numkit library: RNG determinism
   and distribution sanity, statistics, and the RNMSE variability
   measure of paper Eq. 4. *)

let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Numkit.Rng.create 42L and b = Numkit.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Numkit.Rng.next_int64 a)
      (Numkit.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Numkit.Rng.create 1L and b = Numkit.Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" true
    (Numkit.Rng.next_int64 a <> Numkit.Rng.next_int64 b)

let test_of_string_stable () =
  let a = Numkit.Rng.of_string "hello" and b = Numkit.Rng.of_string "hello" in
  Alcotest.(check int64) "same hash stream" (Numkit.Rng.next_int64 a)
    (Numkit.Rng.next_int64 b);
  let c = Numkit.Rng.of_string "hellp" in
  Alcotest.(check bool) "near-collision differs" true
    (Numkit.Rng.next_int64 (Numkit.Rng.of_string "hello")
     <> Numkit.Rng.next_int64 c)

(* Reference FNV-1a 64 vectors; every seed in the repository derives
   from this hash, so it must never drift. *)
let test_hash_string_vectors () =
  List.iter
    (fun (s, h) ->
      Alcotest.(check int64) (Printf.sprintf "%S" s) h (Numkit.Rng.hash_string s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L) ]

let prop_hash_extend_streams =
  QCheck.Test.make ~name:"hash_extend / hash_extend_int stream the hash"
    ~count:500
    QCheck.(triple string_printable string_printable int)
    (fun (a, b, n) ->
      let h = Numkit.Rng.hash_string a in
      let extends_int n =
        Numkit.Rng.hash_extend_int h n = Numkit.Rng.hash_string (a ^ string_of_int n)
      in
      Numkit.Rng.hash_extend h b = Numkit.Rng.hash_string (a ^ b)
      && List.for_all extends_int
           [ n; 0; 9; 10; 99; 100; -1; -10; max_int; min_int ])

(* [hash_extend_int] and [reseed_int] against the string they stand
   for: every int, drawn near the digit-count edges (the packed loop
   moves digits between its two words past 15 of them), in the inline
   range 0..99, and at both ends of [int]. *)
let prop_hash_extend_int_is_string =
  let open QCheck.Gen in
  let edge =
    int_range 1 18 >>= fun k ->
    let p = int_of_float (10.0 ** float_of_int k) in
    map2 (fun d sign -> sign * (p + d)) (int_range (-2) 2) (oneofl [ 1; -1 ])
  in
  let n = oneof [ int_range 0 99; int_range (-120) 120; edge; oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]; int ] in
  QCheck.Test.make ~name:"hash_extend_int h n = hash_extend h (string_of_int n)"
    ~count:2000
    (QCheck.make ~print:(fun (a, n) -> Printf.sprintf "%S, %d" a n)
       (pair (string_size ~gen:printable (int_range 0 8)) n))
    (fun (a, n) ->
      let open Numkit.Rng in
      let h = hash_string a in
      let expected = hash_extend h (string_of_int n) in
      let rng = create 1L in
      reseed_int rng h n;
      hash_extend_int h n = expected
      && next_int64 rng = next_int64 (create expected))

(* splitmix64's output function [mix] is a bijection.  Its inverse
   gives the generator state whose next draw is a chosen 64-bit word,
   so a test can pick the uniforms [normal] and [normal_pos] see. *)
let unmix =
  let unxorshift y s =
    let z = ref y in
    for _ = 0 to 64 / s do
      z := Int64.logxor y (Int64.shift_right_logical !z s)
    done;
    !z
  in
  (* Newton's iteration for the inverse of an odd number mod 2^64. *)
  let inverse a =
    let x = ref a in
    for _ = 1 to 6 do
      x := Int64.mul !x (Int64.sub 2L (Int64.mul a !x))
    done;
    !x
  in
  let m1 = inverse 0xBF58476D1CE4E5B9L and m2 = inverse 0x94D049BB133111EBL in
  fun o ->
    let z = unxorshift o 31 in
    let z = unxorshift (Int64.mul z m2) 27 in
    unxorshift (Int64.mul z m1) 30

let golden_gamma = 0x9E3779B97F4A7C15L

(* Every u2 = k 2^-53 within 2^16 draws of 1/4 and of 3/4, where the
   cosine's sign turns, at three u1 each: [normal_pos] must equal the
   positive part of the full Box-Muller draw bit for bit, shortcut
   taken or not.  The second draw of [create s] reads
   [mix (s + 2 gamma)]; its 11 low bits pick u1 without moving u2. *)
let test_normal_pos_boundary () =
  let module R = Numkit.Rng in
  let checked = ref 0 in
  List.iter
    (fun edge ->
      for k = edge - 65536 to edge + 65536 do
        for low = 0 to 2 do
          let word = Int64.logor (Int64.shift_left (Int64.of_int k) 11) (Int64.of_int (low * 977)) in
          let s = Int64.sub (unmix word) (Int64.mul 2L golden_gamma) in
          let probe = R.create s in
          let u1 = R.float probe in
          let u2 = R.float probe in
          if u2 <> Float.ldexp (float_of_int k) (-53) then
            Alcotest.failf "state for u2 = %d * 2^-53 draws %h" k u2;
          (* u1 = 0 would redraw and move u2; it has odds 2^-53. *)
          if u1 > 0.0 then begin
            incr checked;
            let full = Float.max 0.0 (R.normal (R.create s) ~mu:0.0 ~sigma:1.0) in
            let fast = R.normal_pos (R.create s) ~sigma:1.0 in
            if Int64.bits_of_float fast <> Int64.bits_of_float full then
              Alcotest.failf "u1 = %h, u2 = %h: normal_pos %h, Box-Muller %h" u1 u2
                fast full
          end
        done
      done)
    [ 1 lsl 51; 3 lsl 51 ];
  Alcotest.(check bool) "every u2 checked" true (!checked > 6 * 131072 - 10)

let test_split_independent () =
  let parent = Numkit.Rng.create 7L in
  let c1 = Numkit.Rng.split parent "a" and c2 = Numkit.Rng.split parent "b" in
  Alcotest.(check bool) "children differ" true
    (Numkit.Rng.next_int64 c1 <> Numkit.Rng.next_int64 c2);
  (* Splitting does not advance the parent. *)
  let c1' = Numkit.Rng.split parent "a" in
  Alcotest.(check int64) "split is pure" (Numkit.Rng.next_int64 c1')
    (Numkit.Rng.next_int64 (Numkit.Rng.split parent "a"))

let test_float_range () =
  let rng = Numkit.Rng.create 3L in
  for _ = 1 to 10_000 do
    let x = Numkit.Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_int_range () =
  let rng = Numkit.Rng.create 4L in
  let seen = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Numkit.Rng.int rng 10 in
    if k < 0 || k >= 10 then Alcotest.failf "int out of range: %d" k;
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 700 then Alcotest.failf "bucket %d badly undersampled: %d" i c)
    seen

let test_normal_moments () =
  let rng = Numkit.Rng.create 5L in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Numkit.Rng.normal rng ~mu:3.0 ~sigma:2.0) in
  let mean = Numkit.Stats.mean xs and sd = Numkit.Stats.stddev xs in
  Alcotest.(check (float 0.05)) "mean" 3.0 mean;
  Alcotest.(check (float 0.05)) "stddev" 2.0 sd

let test_normal_zero_sigma () =
  let rng = Numkit.Rng.create 6L in
  check_float "sigma=0 is mu" 1.5 (Numkit.Rng.normal rng ~mu:1.5 ~sigma:0.0)

let test_copy_diverges_from_original () =
  let a = Numkit.Rng.create 9L in
  ignore (Numkit.Rng.next_int64 a);
  let b = Numkit.Rng.copy a in
  Alcotest.(check int64) "copy resumes at same point" (Numkit.Rng.next_int64 a)
    (Numkit.Rng.next_int64 b)

let test_shuffle_permutes () =
  let rng = Numkit.Rng.create 11L in
  let a = Array.init 50 (fun i -> i) in
  Numkit.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* The first outputs of each draw for three seeds, recorded from the
   generator as it was when its state was a mutable [int64] field.
   The representation of the state may change; these streams may not.
   [copy] and [split] must not advance their parent. *)
type golden = {
  label : string;
  make : unit -> Numkit.Rng.t;
  seed : int64;  (** What [make] seeds with, for [reseed]. *)
  first : int64 list;
  copy_next : int64;
  split_next : int64 list;
  parent_next : int64;
  floats : float list;
  ints : int list;
  normals : float list;
  shuffled : int array;
  last : int64;
}

let reading_key = "cat-dcache/thread=3|L1D:REPLACEMENT|rep=4|row=15"

let goldens =
  [
    {
      label = "create 0";
      make = (fun () -> Numkit.Rng.create 0L);
      seed = 0L;
      first = [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ];
      copy_next = -537132696929009172L;
      split_next = [ -7212968599198153566L; 2451887796644670434L ];
      parent_next = -537132696929009172L;
      floats = [ 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3 ];
      ints = [ 470; 649; 195 ];
      normals = [ 0x1.81fae2d6ddccbp-4; -0x1.11c125d48b7fep+0; -0x1.a66ed714dc55fp-1 ];
      shuffled = [| 6; 4; 8; 5; 0; 1; 3; 9; 7; 2 |];
      last = -7827675127045402757L;
    };
    {
      label = "create 42";
      make = (fun () -> Numkit.Rng.create 42L);
      seed = 42L;
      first = [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ];
      copy_next = 6349198060258255764L;
      split_next = [ -3835226041937404597L; -8277967316975860013L ];
      parent_next = 6349198060258255764L;
      floats = [ 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3 ];
      ints = [ 954; 2; 487 ];
      normals = [ -0x1.c76296a7a60e6p+0; -0x1.25473fd96d151p+0; 0x1.0ab38bced1168p-2 ];
      shuffled = [| 1; 6; 8; 2; 5; 0; 7; 3; 9; 4 |];
      last = 5120214421805786385L;
    };
    {
      label = "of_string reading key";
      make = (fun () -> Numkit.Rng.of_string reading_key);
      seed = Numkit.Rng.hash_string reading_key;
      first = [ 7370337885043962885L; -4838156415449571505L; 2198721324653673916L ];
      copy_next = 4448811638425580665L;
      split_next = [ 1391031668177860041L; -3576748822963325274L ];
      parent_next = 4448811638425580665L;
      floats = [ 0x1.7d222e7902845p-1; 0x1.b3a9655f60d88p-4; 0x1.5d369fba0f6cp-1 ];
      ints = [ 274; 262; 118 ];
      normals = [ 0x1.ea8145727f667p-3; 0x1.c7163b88efb6dp+0; 0x1.c9ca3c117f9c5p+0 ];
      shuffled = [| 2; 8; 7; 5; 1; 6; 3; 0; 9; 4 |];
      last = 4930320433605955875L;
    };
  ]

(* Replays the draw sequence the values above were recorded with. *)
let check_golden_stream g rng =
  let module R = Numkit.Rng in
  let draws n f = List.init n (fun _ -> f ()) in
  let check_i64s what expected got =
    Alcotest.(check (list int64)) (g.label ^ ": " ^ what) expected got
  in
  check_i64s "next_int64" g.first (draws 3 (fun () -> R.next_int64 rng));
  let c = R.copy rng in
  let child = R.split rng "child" in
  Alcotest.(check int64) (g.label ^ ": copy") g.copy_next (R.next_int64 c);
  check_i64s "split" g.split_next (draws 2 (fun () -> R.next_int64 child));
  Alcotest.(check int64) (g.label ^ ": parent not advanced") g.parent_next
    (R.next_int64 rng);
  Alcotest.(check (list (float 0.0))) (g.label ^ ": float") g.floats
    (draws 3 (fun () -> R.float rng));
  Alcotest.(check (list int)) (g.label ^ ": int") g.ints
    (draws 3 (fun () -> R.int rng 1000));
  Alcotest.(check (list (float 0.0))) (g.label ^ ": normal") g.normals
    (draws 3 (fun () -> R.normal rng ~mu:0.0 ~sigma:1.0));
  let a = Array.init 10 Fun.id in
  R.shuffle rng a;
  Alcotest.(check (array int)) (g.label ^ ": shuffle") g.shuffled a;
  Alcotest.(check int64) (g.label ^ ": last") g.last (R.next_int64 rng)

let test_golden_streams () =
  List.iter (fun g -> check_golden_stream g (g.make ())) goldens

(* [reseed] restarts a used generator, split seed included, as if it
   were new. *)
let test_reseed_is_create () =
  let rng = Numkit.Rng.create 99L in
  List.iter
    (fun g ->
      ignore (Numkit.Rng.normal rng ~mu:0.0 ~sigma:1.0);
      Numkit.Rng.reseed rng g.seed;
      check_golden_stream g rng)
    goldens

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_mean_variance () =
  check_float "mean" 2.0 (Numkit.Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "variance" (2.0 /. 3.0) (Numkit.Stats.variance [| 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Numkit.Stats.mean [||]))

let test_median () =
  check_float "odd" 2.0 (Numkit.Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "even" 2.5 (Numkit.Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_float "single" 7.0 (Numkit.Stats.median [| 7.0 |])

let test_median_does_not_mutate () =
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Numkit.Stats.median a);
  Alcotest.(check (array (float 0.0))) "input intact" [| 3.0; 1.0; 2.0 |] a

let test_kahan_sum () =
  (* Sum that naive accumulation gets wrong at double precision. *)
  let a = Array.make 10_001 1e-8 in
  a.(0) <- 1e8;
  let s = Numkit.Stats.sum a in
  Alcotest.(check (float 1e-8)) "compensated" (1e8 +. 1e-4) s

let test_rnmse_identical_is_zero () =
  let m = [| 10.0; 20.0; 30.0 |] in
  check_float "identical" 0.0 (Numkit.Stats.rnmse m m)

let test_rnmse_zero_mean_is_one () =
  check_float "zero mean" 1.0 (Numkit.Stats.rnmse [| 0.0; 0.0 |] [| 1.0; 2.0 |]);
  check_float "zero mean arg1" 1.0 (Numkit.Stats.rnmse [| 1.0; 2.0 |] [| 0.0; 0.0 |])

let test_rnmse_known_value () =
  (* ||(1,-1)|| / sqrt(2 * 1.5 * 2.5)  =  sqrt(2)/sqrt(7.5) *)
  let v = Numkit.Stats.rnmse [| 1.0; 2.0 |] [| 2.0; 3.0 |] in
  check_float "hand computed" (sqrt 2.0 /. sqrt 7.5) v

let test_max_rnmse () =
  let reps = [ [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 2.0 |] ] in
  let expected = Numkit.Stats.rnmse [| 1.0; 1.0 |] [| 2.0; 2.0 |] in
  check_float "max over pairs" expected (Numkit.Stats.max_rnmse reps);
  check_float "single rep" 0.0 (Numkit.Stats.max_rnmse [ [| 1.0 |] ])

let test_elementwise () =
  let vs = [ [| 1.0; 10.0 |]; [| 3.0; 30.0 |]; [| 2.0; 20.0 |] ] in
  Alcotest.(check (array (float 1e-12))) "mean" [| 2.0; 20.0 |]
    (Numkit.Stats.elementwise_mean vs)

let test_all_zero () =
  Alcotest.(check bool) "zeros" true (Numkit.Stats.all_zero [| 0.0; 0.0 |]);
  Alcotest.(check bool) "nonzero" false (Numkit.Stats.all_zero [| 0.0; 1e-30 |])

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let nonempty_floats =
  (* Counter-like data: non-negative. *)
  QCheck.(array_of_size Gen.(int_range 1 20) (float_range 0. 1000.))

let prop_rnmse_symmetric =
  QCheck.Test.make ~name:"rnmse symmetric" ~count:200
    QCheck.(pair nonempty_floats nonempty_floats)
    (fun (a, b) ->
      QCheck.assume (Array.length a = Array.length b);
      let x = Numkit.Stats.rnmse a b and y = Numkit.Stats.rnmse b a in
      Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x))

let prop_median_bounds =
  QCheck.Test.make ~name:"median within min/max" ~count:500 nonempty_floats
    (fun a ->
      let m = Numkit.Stats.median a in
      let lo = Array.fold_left Float.min infinity a in
      let hi = Array.fold_left Float.max neg_infinity a in
      m >= lo -. 1e-12 && m <= hi +. 1e-12)

(* The median as it was defined before it got its own float sort: a
   copy sorted by the polymorphic [Array.sort compare]. *)
let oracle_median a =
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

(* Short arrays drawn from a small pool rich in values that compare
   equal but differ in bits (0. and -0., NaNs of either sign) and in
   ties, so where the sort puts each one shows in the median; and
   longer arrays of ordinary values. *)
let median_cases =
  let special =
    [| 0.0; -0.0; nan; -.nan; infinity; neg_infinity; 1.0; -1.0; 2.5; 1.0 |]
  in
  QCheck.make
    ~print:QCheck.Print.(array (fun x -> Printf.sprintf "%h" x))
    QCheck.Gen.(
      frequency
        [
          (3, array_size (int_range 1 9) (oneofa special));
          (1, array_size (int_range 1 64) (oneof [ oneofa special; float ]));
        ])

let prop_median_is_oracle =
  QCheck.Test.make ~name:"median is the sorted-copy median, bit for bit" ~count:3000
    median_cases (fun a ->
      let before = Array.copy a in
      let bits x = Int64.bits_of_float x in
      let m = Numkit.Stats.median a in
      let in_place = Numkit.Stats.median_in_place (Array.copy a) in
      bits m = bits (oracle_median a)
      && bits in_place = bits m
      && Array.for_all2 (fun x y -> bits x = bits y) a before)

let prop_mean_linear =
  QCheck.Test.make ~name:"mean scales linearly" ~count:200 nonempty_floats
    (fun a ->
      let scaled = Array.map (fun x -> 3.0 *. x) a in
      Float.abs ((3.0 *. Numkit.Stats.mean a) -. Numkit.Stats.mean scaled)
      <= 1e-6 *. Float.max 1.0 (Float.abs (Numkit.Stats.mean scaled)))

(* ------------------------------------------------------------------ *)
(* Noise-filter kernels against the list-based code they replaced      *)
(* ------------------------------------------------------------------ *)

(* The former Stats kernels, kept verbatim as reference models: the
   loops that replaced them must give bit-identical floats and raise
   the same exceptions. *)
module Reference = struct
  let check_nonempty name a =
    if Array.length a = 0 then invalid_arg (name ^ ": empty input")

  let sum a =
    (* Kahan summation: measurement vectors mix magnitudes freely. *)
    let s = ref 0.0 and c = ref 0.0 in
    Array.iter
      (fun x ->
        let y = x -. !c in
        let t = !s +. y in
        c := t -. !s -. y;
        s := t)
      a;
    !s

  let mean a =
    check_nonempty "Stats.mean" a;
    sum a /. float_of_int (Array.length a)

  let rnmse m1 m2 =
    let n = Array.length m1 in
    if n = 0 || n <> Array.length m2 then invalid_arg "Stats.rnmse: length mismatch";
    let mu1 = mean m1 and mu2 = mean m2 in
    if mu1 *. mu2 <= 0.0 then 1.0
    else begin
      let diff = Array.init n (fun i -> (m1.(i) -. m2.(i)) *. (m1.(i) -. m2.(i))) in
      sqrt (sum diff) /. sqrt (float_of_int n *. mu1 *. mu2)
    end

  let max_rnmse reps =
    let reps = Array.of_list reps in
    let worst = ref 0.0 in
    for i = 0 to Array.length reps - 1 do
      for j = i + 1 to Array.length reps - 1 do
        let v = rnmse reps.(i) reps.(j) in
        if not (v <= !worst) then worst := v
      done
    done;
    !worst

  let mean_rnmse reps =
    let reps = Array.of_list reps in
    let total = ref 0.0 and pairs = ref 0 in
    for i = 0 to Array.length reps - 1 do
      for j = i + 1 to Array.length reps - 1 do
        total := !total +. rnmse reps.(i) reps.(j);
        incr pairs
      done
    done;
    if !pairs = 0 then 0.0 else !total /. float_of_int !pairs

  let max_relative_range reps =
    match reps with
    | [] | [ _ ] -> 0.0
    | first :: _ ->
      let n = Array.length first in
      let worst = ref 0.0 in
      for i = 0 to n - 1 do
        let values = List.map (fun v -> v.(i)) reps in
        let lo = List.fold_left Float.min infinity values in
        let hi = List.fold_left Float.max neg_infinity values in
        let mu = List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values) in
        let range = hi -. lo in
        let rel =
          if range = 0.0 then 0.0 else if mu = 0.0 then 1.0 else range /. mu
        in
        if not (rel <= !worst) then worst := rel
      done;
      !worst

  let elementwise f vs =
    match vs with
    | [] -> invalid_arg "Stats.elementwise: empty list"
    | first :: _ ->
      let n = Array.length first in
      List.iter
        (fun v ->
          if Array.length v <> n then invalid_arg "Stats.elementwise: ragged input")
        vs;
      Array.init n (fun i -> f (Array.of_list (List.map (fun v -> v.(i)) vs)))

  let elementwise_mean vs = elementwise mean vs
end

(* Readings as a corrupt or hostile import may carry them: NaN, +-inf,
   signed zeros, negatives, and magnitudes from 1e-300 to 1e300. *)
let gen_reading =
  QCheck.Gen.(
    frequency
      [ (6, float_range 0. 1e6);
        (2, map float_of_int (int_range (-5) 5));
        (2, map2 (fun m e -> m *. (10. ** float_of_int e))
              (float_range (-10.) 10.) (int_range (-300) 300));
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0 ]) ])

(* 0-8 repetitions of one length 0-8, all-zero or zero-mean ones among
   them, and now and then one of another length. *)
let gen_reps =
  QCheck.Gen.(
    int_range 0 8 >>= fun k ->
    int_range 0 8 >>= fun n ->
    let vector =
      frequency
        [ (8, array_repeat n gen_reading);
          (1, return (Array.make n 0.0));
          (1, return (Array.init n (fun i -> if i mod 2 = 0 then 1.0 else -1.0))) ]
    in
    list_repeat k vector >>= fun reps ->
    frequency [ (8, return reps);
                (1, map (fun m -> reps @ [ Array.make m 1.0 ]) (int_range 0 9)) ])

let arb_reps =
  QCheck.make gen_reps
    ~print:QCheck.Print.(list (fun a -> array float a))

let outcome f x =
  match f x with
  | v -> Ok v
  | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_outcome eq f g x =
  match (outcome f x, outcome g x) with
  | Ok a, Ok b -> eq a b
  | Error a, Error b -> a = b
  | _ -> false

let prop_kernel name f g =
  QCheck.Test.make ~name:(name ^ " bit-identical to reference") ~count:1000
    arb_reps (same_outcome bits_eq f g)

let prop_kernels_match_reference =
  [ prop_kernel "max_rnmse" Numkit.Stats.max_rnmse Reference.max_rnmse;
    prop_kernel "mean_rnmse" Numkit.Stats.mean_rnmse Reference.mean_rnmse;
    prop_kernel "max_relative_range" Numkit.Stats.max_relative_range
      Reference.max_relative_range;
    QCheck.Test.make ~name:"elementwise_mean bit-identical to reference"
      ~count:1000 arb_reps
      (same_outcome
         (fun a b -> Array.length a = Array.length b && Array.for_all2 bits_eq a b)
         Numkit.Stats.elementwise_mean Reference.elementwise_mean);
    (* sum, mean and rnmse over every vector and every pair. *)
    QCheck.Test.make ~name:"sum, mean, rnmse bit-identical to reference"
      ~count:1000 arb_reps (fun reps ->
        List.for_all
          (fun a ->
            same_outcome bits_eq Numkit.Stats.sum Reference.sum a
            && same_outcome bits_eq Numkit.Stats.mean Reference.mean a
            && List.for_all
                 (fun b ->
                   same_outcome bits_eq
                     (fun (a, b) -> Numkit.Stats.rnmse a b)
                     (fun (a, b) -> Reference.rnmse a b)
                     (a, b))
                 reps)
          reps) ]

let () =
  Alcotest.run "numkit"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "of_string stable" `Quick test_of_string_stable;
          Alcotest.test_case "FNV-1a vectors" `Quick test_hash_string_vectors;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "float in [0,1)" `Quick test_float_range;
          Alcotest.test_case "int uniform" `Quick test_int_range;
          Alcotest.test_case "normal moments" `Slow test_normal_moments;
          Alcotest.test_case "normal sigma=0" `Quick test_normal_zero_sigma;
          Alcotest.test_case "normal_pos at the cosine's sign edges" `Quick
            test_normal_pos_boundary;
          Alcotest.test_case "copy preserves state" `Quick test_copy_diverges_from_original;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "golden streams" `Quick test_golden_streams;
          Alcotest.test_case "reseed is create" `Quick test_reseed_is_create;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "median pure" `Quick test_median_does_not_mutate;
          Alcotest.test_case "kahan sum" `Quick test_kahan_sum;
          Alcotest.test_case "rnmse identical" `Quick test_rnmse_identical_is_zero;
          Alcotest.test_case "rnmse zero-mean" `Quick test_rnmse_zero_mean_is_one;
          Alcotest.test_case "rnmse known value" `Quick test_rnmse_known_value;
          Alcotest.test_case "max rnmse" `Quick test_max_rnmse;
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "all_zero" `Quick test_all_zero;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          ([ prop_rnmse_symmetric; prop_median_bounds; prop_median_is_oracle;
             prop_mean_linear;
             prop_hash_extend_streams; prop_hash_extend_int_is_string ]
          @ prop_kernels_match_reference) );
    ]
