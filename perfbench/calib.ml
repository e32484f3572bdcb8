(* The benchmark's calibration program: a fixed amount of work in the
   style of the product (string keys and hashing, boxed floats, short
   lists of small arrays, random reads over 16 MB), using the standard
   library only, so no change to the repository can change its speed.
   run.py times it between the product invocations and reads the
   machine's current speed from it; see NOTES.md. *)

let () =
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 99_999 do
    let key = Printf.sprintf "k%d|rep=%d" (i land 32767) (i mod 5) in
    let v = float_of_int (Hashtbl.hash key) *. 1e-9 in
    Hashtbl.replace tbl key v;
    acc := !acc +. v
  done;
  let n = 1 lsl 21 in
  let next = Array.init n (fun i -> ((i * 7919) + 13) land (n - 1)) in
  let j = ref 0 in
  for _ = 1 to 1_000_000 do
    j := next.(!j)
  done;
  let l = List.init 300_000 (fun i -> Array.make 4 (float_of_int i)) in
  let sum = List.fold_left (fun s x -> s +. x.(0)) 0. l in
  Printf.printf "%g %d %g\n" !acc !j sum
