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

(* With no NaN and no -0. in [a], elements that compare equal are
   bit-identical, so any correct sort leaves the cells [sort_floats]
   would. *)
let plain (a : float array) =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if x <> x || (x = 0.0 && Float.sign_bit x) then ok := false
  done;
  !ok

let insertion_sort (a : float array) =
  for i = 1 to Array.length a - 1 do
    let e = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > e do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- e
  done

(* Short plain arrays (dcache's median of 8 threads) skip the heap
   sort's set-up. *)
let median_in_place a =
  check_nonempty "Stats.median" a;
  if Array.length a <= 16 && plain a then insertion_sort a else sort_floats a;
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

(* The noise filter's Kahan sums, five independent chains at a time.
   A chain is latency-bound: each step waits for the one before.  Five
   chains in one loop overlap, and each keeps [sum]'s operations in its
   own order, so every result is [sum]'s bit for bit.  Five is the
   default repetition count: its means take one group and its ten pairs
   two.  A group of fewer than five repeats its last lane, whose result
   lands in a spare slot of [out] and is never read.  The vectors'
   lengths are checked by the callers. *)

(* [out.(o + l)] is the Kahan sum of [a_l]'s first [n] elements. *)
let sums5 (out : float array) o (a0 : float array) (a1 : float array)
    (a2 : float array) (a3 : float array) (a4 : float array) n =
  let s0 = ref 0.0 and c0 = ref 0.0 and s1 = ref 0.0 and c1 = ref 0.0 in
  let s2 = ref 0.0 and c2 = ref 0.0 and s3 = ref 0.0 and c3 = ref 0.0 in
  let s4 = ref 0.0 and c4 = ref 0.0 in
  for i = 0 to n - 1 do
    let y0 = Array.unsafe_get a0 i -. !c0 in
    let y1 = Array.unsafe_get a1 i -. !c1 in
    let y2 = Array.unsafe_get a2 i -. !c2 in
    let y3 = Array.unsafe_get a3 i -. !c3 in
    let y4 = Array.unsafe_get a4 i -. !c4 in
    let t0 = y0 +. !s0 and t1 = y1 +. !s1 and t2 = y2 +. !s2 in
    let t3 = y3 +. !s3 and t4 = y4 +. !s4 in
    c0 := t0 -. !s0 -. y0;
    c1 := t1 -. !s1 -. y1;
    c2 := t2 -. !s2 -. y2;
    c3 := t3 -. !s3 -. y3;
    c4 := t4 -. !s4 -. y4;
    s0 := t0;
    s1 := t1;
    s2 := t2;
    s3 := t3;
    s4 := t4
  done;
  Array.unsafe_set out o !s0;
  Array.unsafe_set out (o + 1) !s1;
  Array.unsafe_set out (o + 2) !s2;
  Array.unsafe_set out (o + 3) !s3;
  Array.unsafe_set out (o + 4) !s4

(* [out.(o + l)] is the Kahan sum of [(a_l.(i) -. b_l.(i))^2] over the
   first [n] elements, as [rnmse_with_means] sums it. *)
let sqdiff_sums5 (out : float array) o (a0 : float array) (b0 : float array)
    (a1 : float array) (b1 : float array) (a2 : float array)
    (b2 : float array) (a3 : float array) (b3 : float array)
    (a4 : float array) (b4 : float array) n =
  let s0 = ref 0.0 and c0 = ref 0.0 and s1 = ref 0.0 and c1 = ref 0.0 in
  let s2 = ref 0.0 and c2 = ref 0.0 and s3 = ref 0.0 and c3 = ref 0.0 in
  let s4 = ref 0.0 and c4 = ref 0.0 in
  for i = 0 to n - 1 do
    let d0 = Array.unsafe_get a0 i -. Array.unsafe_get b0 i in
    let d1 = Array.unsafe_get a1 i -. Array.unsafe_get b1 i in
    let d2 = Array.unsafe_get a2 i -. Array.unsafe_get b2 i in
    let d3 = Array.unsafe_get a3 i -. Array.unsafe_get b3 i in
    let d4 = Array.unsafe_get a4 i -. Array.unsafe_get b4 i in
    let y0 = (d0 *. d0) -. !c0 and y1 = (d1 *. d1) -. !c1 in
    let y2 = (d2 *. d2) -. !c2 and y3 = (d3 *. d3) -. !c3 in
    let y4 = (d4 *. d4) -. !c4 in
    let t0 = y0 +. !s0 and t1 = y1 +. !s1 and t2 = y2 +. !s2 in
    let t3 = y3 +. !s3 and t4 = y4 +. !s4 in
    c0 := t0 -. !s0 -. y0;
    c1 := t1 -. !s1 -. y1;
    c2 := t2 -. !s2 -. y2;
    c3 := t3 -. !s3 -. y3;
    c4 := t4 -. !s4 -. y4;
    s0 := t0;
    s1 := t1;
    s2 := t2;
    s3 := t3;
    s4 := t4
  done;
  Array.unsafe_set out o !s0;
  Array.unsafe_set out (o + 1) !s1;
  Array.unsafe_set out (o + 2) !s2;
  Array.unsafe_set out (o + 3) !s3;
  Array.unsafe_set out (o + 4) !s4

(* [sums5] on the five repetitions at [a0 .. a4], and with it one
   Kahan step of every column's sum [s.(i)] (compensation [c.(i)]) by
   each of the five in turn, as [kahan_columns] takes them: the column
   chains ride in the spare throughput of the latency-bound lanes. *)
let sums_columns5 (out : float array) o (s : float array) (c : float array)
    (a0 : float array) (a1 : float array) (a2 : float array)
    (a3 : float array) (a4 : float array) n =
  let s0 = ref 0.0 and c0 = ref 0.0 and s1 = ref 0.0 and c1 = ref 0.0 in
  let s2 = ref 0.0 and c2 = ref 0.0 and s3 = ref 0.0 and c3 = ref 0.0 in
  let s4 = ref 0.0 and c4 = ref 0.0 in
  for i = 0 to n - 1 do
    let x0 = Array.unsafe_get a0 i and x1 = Array.unsafe_get a1 i in
    let x2 = Array.unsafe_get a2 i and x3 = Array.unsafe_get a3 i in
    let x4 = Array.unsafe_get a4 i in
    let y0 = x0 -. !c0 and y1 = x1 -. !c1 and y2 = x2 -. !c2 in
    let y3 = x3 -. !c3 and y4 = x4 -. !c4 in
    let t0 = y0 +. !s0 and t1 = y1 +. !s1 and t2 = y2 +. !s2 in
    let t3 = y3 +. !s3 and t4 = y4 +. !s4 in
    c0 := t0 -. !s0 -. y0;
    c1 := t1 -. !s1 -. y1;
    c2 := t2 -. !s2 -. y2;
    c3 := t3 -. !s3 -. y3;
    c4 := t4 -. !s4 -. y4;
    s0 := t0;
    s1 := t1;
    s2 := t2;
    s3 := t3;
    s4 := t4;
    let si = Array.unsafe_get s i and ci = Array.unsafe_get c i in
    let y = x0 -. ci in
    let t = y +. si in
    let ci = t -. si -. y and si = t in
    let y = x1 -. ci in
    let t = y +. si in
    let ci = t -. si -. y and si = t in
    let y = x2 -. ci in
    let t = y +. si in
    let ci = t -. si -. y and si = t in
    let y = x3 -. ci in
    let t = y +. si in
    let ci = t -. si -. y and si = t in
    let y = x4 -. ci in
    let t = y +. si in
    Array.unsafe_set c i (t -. si -. y);
    Array.unsafe_set s i t
  done;
  Array.unsafe_set out o !s0;
  Array.unsafe_set out (o + 1) !s1;
  Array.unsafe_set out (o + 2) !s2;
  Array.unsafe_set out (o + 3) !s3;
  Array.unsafe_set out (o + 4) !s4

(* One Kahan step of every column: [v.(i)] into the sum [s.(i)] with
   compensation [c.(i)], as [sum] takes a step. *)
let kahan_columns (s : float array) (c : float array) (v : float array) n =
  for i = 0 to n - 1 do
    let si = Array.unsafe_get s i in
    let y = Array.unsafe_get v i -. Array.unsafe_get c i in
    let t = y +. si in
    Array.unsafe_set c i (t -. si -. y);
    Array.unsafe_set s i t
  done

(* [k] rounded up to whole groups of five lanes. *)
let lanes k = (k + 4) / 5 * 5

(* The pairs (i, j), i < j, of [k] repetitions in the order of the loops
   [for i .. for j = i + 1 ..], as two arrays of indices padded to whole
   groups with the last pair. *)
let pairs k =
  let np = k * (k - 1) / 2 in
  let first = Array.make (lanes np) 0 and second = Array.make (lanes np) 0 in
  let p = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      first.(!p) <- i;
      second.(!p) <- j;
      incr p
    done
  done;
  for p = np to lanes np - 1 do
    first.(p) <- first.(np - 1);
    second.(p) <- second.(np - 1)
  done;
  (first, second)

(* Eq. 4 for every pair of the [k >= 2] repetitions [vs] (length
   [n > 0]), whose Kahan sums are [sums], in pair order: the pairs'
   squared differences are summed five pairs at a time, and each
   becomes its RNMSE as [rnmse_with_means] makes it, with each mean
   [sum /. n] as [mean] takes it.  Returns the values and their number
   (the array is longer by a group's spare slots). *)
let pairwise_rnmse (vs : float array array) n (sums : float array) =
  let k = Array.length vs in
  let np = k * (k - 1) / 2 in
  let first, second = pairs k in
  let out = Array.create_float (lanes np) in
  for g = 0 to (lanes np / 5) - 1 do
    let o = 5 * g in
    let a l = vs.(first.(o + l)) and b l = vs.(second.(o + l)) in
    sqdiff_sums5 out o (a 0) (b 0) (a 1) (b 1) (a 2) (b 2) (a 3) (b 3) (a 4) (b 4) n
  done;
  let fn = float_of_int n in
  for p = 0 to np - 1 do
    let mu1 = sums.(first.(p)) /. fn and mu2 = sums.(second.(p)) /. fn in
    out.(p) <-
      (if mu1 *. mu2 <= 0.0 then 1.0
       else sqrt out.(p) /. sqrt (fn *. mu1 *. mu2))
  done;
  (out, np)

let fold_max (v, np) =
  let worst = ref 0.0 in
  for p = 0 to np - 1 do
    (* [not (v <= worst)] instead of [v > worst] so a NaN (corrupt
       reading) propagates instead of being silently dropped. *)
    if not (v.(p) <= !worst) then worst := v.(p)
  done;
  !worst

let fold_mean (v, np) =
  let total = ref 0.0 in
  for p = 0 to np - 1 do
    total := !total +. v.(p)
  done;
  if np = 0 then 0.0 else !total /. float_of_int np

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

type reps = {
  vectors : float array array;
  n : int;
  mean : float array;  (* the elementwise mean *)
  sums : float array;  (* each vector's Kahan sum, then spare slots *)
}

let reps vs =
  let n = common_length vs in
  let vectors = Array.of_list vs in
  let k = Array.length vectors in
  (* Column [i]'s [mean] is Kahan over the vectors in list order, taken
     vector by vector over per-column sums and compensations, so the
     columns' chains overlap.  Full groups of five take their column
     steps in the pass that sums each of them; the rest, in order after
     them, one column step per vector, and their sums in one padded
     group. *)
  let s = Array.make n 0.0 and c = Array.make n 0.0 in
  let sums = Array.create_float (lanes k) in
  let full = k / 5 in
  for g = 0 to full - 1 do
    let rep l = vectors.((5 * g) + l) in
    sums_columns5 sums (5 * g) s c (rep 0) (rep 1) (rep 2) (rep 3) (rep 4) n
  done;
  if 5 * full < k then begin
    for r = 5 * full to k - 1 do
      kahan_columns s c vectors.(r) n
    done;
    let o = 5 * full and rep l = vectors.(min l (k - 1)) in
    sums5 sums o (rep o) (rep (o + 1)) (rep (o + 2)) (rep (o + 3)) (rep (o + 4)) n
  end;
  let fk = float_of_int k in
  for i = 0 to n - 1 do
    Array.unsafe_set s i (Array.unsafe_get s i /. fk)
  done;
  { vectors; n; mean = s; sums }

let reps_mean t = t.mean
let elementwise_mean vs = (reps vs).mean

let reps_pairwise fold t =
  if Array.length t.vectors < 2 then 0.0
  else if t.n = 0 then invalid_arg "Stats.rnmse: length mismatch"
  else fold (pairwise_rnmse t.vectors t.n t.sums)

let reps_max_rnmse t = reps_pairwise fold_max t
let reps_mean_rnmse t = reps_pairwise fold_mean t

(* A pairwise measure of a list of repetitions: two or more must share
   one positive length (every pair is a valid [rnmse] argument); fewer
   form no pair and measure 0. *)
let pairwise fold vs =
  match vs with
  | [] | [ _ ] -> 0.0
  | first :: _ ->
    let n = Array.length first in
    if n = 0 || List.exists (fun v -> Array.length v <> n) vs then
      invalid_arg "Stats.rnmse: length mismatch";
    reps_pairwise fold (reps vs)

let max_rnmse reps = pairwise fold_max reps
let mean_rnmse reps = pairwise fold_mean reps

let all_zero (a : float array) =
  let i = ref 0 in
  while !i < Array.length a && Array.unsafe_get a !i = 0.0 do
    incr i
  done;
  !i = Array.length a
