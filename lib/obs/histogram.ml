(* Fixed-bucket latency histogram.

   Buckets are log2-spaced upper bounds in nanoseconds, fixed for
   every histogram in the process: bounds.(i) = 1024 * 2^i ns, i in
   0..25 (1.024 us up to ~34.4 s), plus one overflow bucket.  Fixed
   geometry is the point: two histograms recorded by different runs
   (or different machines) are directly comparable
   bucket by bucket, which is what the run-manifest diff needs. *)

let bucket_bounds =
  Array.init 26 (fun i -> 1024.0 *. (2.0 ** float_of_int i))

let bucket_count = Array.length bucket_bounds + 1

let scheme_id = Printf.sprintf "log2-1024ns-%d" (Array.length bucket_bounds)

type t = {
  counts : int array;  (* bucket_count cells; last is overflow *)
  mutable n : int;
  mutable sum_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
}

let create () =
  {
    counts = Array.make bucket_count 0;
    n = 0;
    sum_ns = 0.0;
    min_ns = infinity;
    max_ns = neg_infinity;
  }

let bucket_index v =
  let rec go i =
    if i >= Array.length bucket_bounds then Array.length bucket_bounds
    else if v <= bucket_bounds.(i) then i
    else go (i + 1)
  in
  go 0

let observe t v =
  let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
  t.counts.(bucket_index v) <- t.counts.(bucket_index v) + 1;
  t.n <- t.n + 1;
  t.sum_ns <- t.sum_ns +. v;
  if v < t.min_ns then t.min_ns <- v;
  if v > t.max_ns then t.max_ns <- v

let count t = t.n
let sum_ns t = t.sum_ns
let min_ns t = t.min_ns
let max_ns t = t.max_ns
let counts t = Array.copy t.counts

(* Quantile estimate: walk the cumulative counts to the bucket that
   contains rank q*n, then interpolate linearly inside the bucket.
   The estimate is clamped to the recorded [min, max], so single-value
   distributions report that value exactly at every quantile. *)
let quantile t q =
  if t.n = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int t.n in
    let nb = Array.length bucket_bounds in
    let rec go i cum =
      if i >= Array.length t.counts then t.max_ns
      else begin
        let c = t.counts.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= target then begin
          let lo = if i = 0 then 0.0 else bucket_bounds.(i - 1) in
          let hi = if i < nb then bucket_bounds.(i) else t.max_ns in
          let frac = (target -. float_of_int cum) /. float_of_int c in
          let est = lo +. (frac *. (hi -. lo)) in
          Float.max t.min_ns (Float.min t.max_ns est)
        end
        else go (i + 1) cum'
      end
    in
    go 0 0
  end
