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

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  check_nonempty "Stats.median" a;
  let b = sorted_copy a in
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let quantile a q =
  check_nonempty "Stats.quantile" a;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let b = sorted_copy a in
  let n = Array.length b in
  if n = 1 then b.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i >= n - 1 then b.(n - 1) else b.(i) +. (frac *. (b.(i + 1) -. b.(i)))
  end

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

let mad a =
  let m = median a in
  median (Array.map (fun x -> Float.abs (x -. m)) a)

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

let elementwise f vs =
  let n = common_length vs in
  Array.init n (fun i -> f (Array.of_list (List.map (fun v -> v.(i)) vs)))

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

let elementwise_median vs = elementwise median vs
let all_zero a = Array.for_all (fun x -> x = 0.0) a
