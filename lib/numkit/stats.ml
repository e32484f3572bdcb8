let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty input")

let sum a =
  (* Kahan summation: measurement vectors mix magnitudes freely.  A
     [for] loop keeps the partial sums in registers.  [y +. s] equals
     [s +. y] bit for bit, except that with a NaN on both sides this
     order yields [y]'s: that fixes the sign of a NaN result, and so
     whether it prints as "nan" or "-nan" (pinned in test_numkit). *)
  let s = ref 0.0 and c = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !c in
    let t = y +. !s in
    c := t -. !s -. y;
    s := t
  done;
  !s

let mean a =
  check_nonempty "Stats.mean" a;
  sum a /. float_of_int (Array.length a)

let variance a =
  check_nonempty "Stats.variance" a;
  let m = mean a in
  let acc = Array.map (fun x -> (x -. m) *. (x -. m)) a in
  sum acc /. float_of_int (Array.length a)

let stddev a = sqrt (variance a)

(* The largest of node [i]'s (up to three) children in a ternary heap
   of [l] cells, or -1 when it has none. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

(* [Array.sort compare a] for a float array: the same ternary heap
   sort, comparison for comparison and move for move, so values that
   compare equal but differ in bits (0. and -0., NaNs of either sign)
   end where it puts them.  [Float.compare] orders floats as [compare]
   does, NaN first.  Loops instead of its recursion keep every float
   unboxed: nothing is allocated. *)
let sort_floats (a : float array) =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    (* Trickle [a.(i)] down. *)
    let e = a.(i) in
    let i = ref i and j = ref (maxson a l i) in
    while !j >= 0 && Float.compare a.(!j) e > 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a l !j
    done;
    a.(!i) <- e
  done;
  for k = l - 1 downto 2 do
    (* Move the top to [k], bubble the hole to the bottom of the heap
       of [k] cells, and trickle the old [a.(k)] up from there. *)
    let e = a.(k) in
    a.(k) <- a.(0);
    let i = ref 0 and j = ref (maxson a k 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a k !j
    done;
    while !i > 0 && Float.compare a.((!i - 1) / 3) e < 0 do
      a.(!i) <- a.((!i - 1) / 3);
      i := (!i - 1) / 3
    done;
    a.(!i) <- e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let median_in_place a =
  check_nonempty "Stats.median" a;
  sort_floats a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median a = median_in_place (Array.copy a)

(* Eq. 4 for one pair whose means are already known: the squared
   differences are Kahan-summed in index order, as [sum] would sum
   them from an array. *)
let rnmse_with_means m1 mu1 m2 mu2 =
  (* Counter readings are non-negative, so a non-positive mean product
     only arises when a mean is zero (the paper's 100%-error rule) or
     the inputs are not counts at all; both get maximal variability. *)
  if mu1 *. mu2 <= 0.0 then 1.0
  else begin
    let n = Array.length m1 in
    let s = ref 0.0 and c = ref 0.0 in
    for i = 0 to n - 1 do
      let d = m1.(i) -. m2.(i) in
      let y = (d *. d) -. !c in
      let t = y +. !s in
      c := t -. !s -. y;
      s := t
    done;
    sqrt !s /. sqrt (float_of_int n *. mu1 *. mu2)
  end

let rnmse m1 m2 =
  let n = Array.length m1 in
  if n = 0 || n <> Array.length m2 then invalid_arg "Stats.rnmse: length mismatch";
  rnmse_with_means m1 (mean m1) m2 (mean m2)

(* The repetitions of a pairwise measure with each one's mean, taken
   once.  Every pair must be a valid [rnmse] argument, so two or more
   repetitions must share one positive length; fewer form no pair. *)
let reps_with_means reps =
  let reps = Array.of_list reps in
  if Array.length reps < 2 then (reps, [||])
  else begin
    let n = Array.length reps.(0) in
    if n = 0 || Array.exists (fun r -> Array.length r <> n) reps then
      invalid_arg "Stats.rnmse: length mismatch";
    (reps, Array.map mean reps)
  end

let max_rnmse reps =
  let reps, mus = reps_with_means reps in
  let worst = ref 0.0 in
  for i = 0 to Array.length reps - 1 do
    for j = i + 1 to Array.length reps - 1 do
      let v = rnmse_with_means reps.(i) mus.(i) reps.(j) mus.(j) in
      (* [not (v <= worst)] instead of [v > worst] so a NaN (corrupt
         reading) propagates instead of being silently dropped. *)
      if not (v <= !worst) then worst := v
    done
  done;
  !worst

let mean_rnmse reps =
  let reps, mus = reps_with_means reps in
  let total = ref 0.0 and pairs = ref 0 in
  for i = 0 to Array.length reps - 1 do
    for j = i + 1 to Array.length reps - 1 do
      total := !total +. rnmse_with_means reps.(i) mus.(i) reps.(j) mus.(j);
      incr pairs
    done
  done;
  if !pairs = 0 then 0.0 else !total /. float_of_int !pairs

let max_relative_range reps =
  match reps with
  | [] | [ _ ] -> 0.0
  | first :: _ ->
    let reps = Array.of_list reps in
    let k = Array.length reps in
    let worst = ref 0.0 in
    for i = 0 to Array.length first - 1 do
      (* Left folds over the repetitions, as over a list of them. *)
      let lo = ref infinity and hi = ref neg_infinity and total = ref 0.0 in
      for r = 0 to k - 1 do
        let x = reps.(r).(i) in
        lo := Float.min !lo x;
        hi := Float.max !hi x;
        total := !total +. x
      done;
      let mu = !total /. float_of_int k in
      let range = !hi -. !lo in
      let rel =
        if range = 0.0 then 0.0 else if mu = 0.0 then 1.0 else range /. mu
      in
      if not (rel <= !worst) then worst := rel
    done;
    !worst

(* The common length of a non-empty list of equal-length vectors. *)
let common_length vs =
  match vs with
  | [] -> invalid_arg "Stats.elementwise: empty list"
  | first :: _ ->
    let n = Array.length first in
    List.iter
      (fun v ->
        if Array.length v <> n then invalid_arg "Stats.elementwise: ragged input")
      vs;
    n

let elementwise_mean vs =
  let n = common_length vs in
  let vs = Array.of_list vs in
  let k = Array.length vs in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    (* [mean] of column [i]: Kahan over the vectors in list order. *)
    let s = ref 0.0 and c = ref 0.0 in
    for r = 0 to k - 1 do
      let y = vs.(r).(i) -. !c in
      let t = y +. !s in
      c := t -. !s -. y;
      s := t
    done;
    out.(i) <- !s /. float_of_int k
  done;
  out

let all_zero a = Array.for_all (fun x -> x = 0.0) a
