(* Every floating-point operation of the numeric core, and its order,
   is written here once, over [floatarray] storage.  Element access
   is the [Float.Array] compiler primitives, so each access is a
   single load/store.

   Accumulators ([col_sqnorms]'s per-column sums, [reflect_panel]'s
   [w]) are plain [float array] scratch. *)

type view = { data : floatarray; off : int; inc : int; len : int }

let view data ~off ~inc ~len =
  if len < 0 then invalid_arg "Kernel.view: negative length";
  if len > 0 then begin
    let last = off + ((len - 1) * inc) in
    let bound = Float.Array.length data in
    if off < 0 || off >= bound || last < 0 || last >= bound then
      invalid_arg "Kernel.view: view exceeds storage"
  end;
  { data; off; inc; len }

let full data = { data; off = 0; inc = 1; len = Float.Array.length data }
let len v = v.len

let sub v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.len then
    invalid_arg "Kernel.sub: range out of bounds";
  { v with off = v.off + (pos * v.inc); len }

let unsafe_get v i = Float.Array.unsafe_get v.data (v.off + (i * v.inc))
let unsafe_set v i x = Float.Array.unsafe_set v.data (v.off + (i * v.inc)) x

let check_same_len name x y =
  if x.len <> y.len then invalid_arg (name ^ ": length mismatch")

let swap x y =
  check_same_len "Kernel.swap" x y;
  for i = 0 to x.len - 1 do
    let t = unsafe_get x i in
    unsafe_set x i (unsafe_get y i);
    unsafe_set y i t
  done

let scal alpha v =
  for i = 0 to v.len - 1 do
    unsafe_set v i (alpha *. unsafe_get v i)
  done

let dot x y =
  check_same_len "Kernel.dot" x y;
  let s = ref 0.0 in
  for i = 0 to x.len - 1 do
    s := !s +. (unsafe_get x i *. unsafe_get y i)
  done;
  !s

let axpy ~alpha ~x ~y =
  check_same_len "Kernel.axpy" x y;
  for i = 0 to x.len - 1 do
    unsafe_set y i (unsafe_get y i +. (alpha *. unsafe_get x i))
  done

let amax v =
  (* [Float.max !s a] with [a = Float.abs x]: [s] starts at +0 and only
     ever takes such an [a], so its sign bit is clear, and the largest,
     or the last NaN, is kept without [Float.max]'s sign-bit calls. *)
  let s = ref 0.0 in
  for i = 0 to v.len - 1 do
    let a = Float.abs (unsafe_get v i) in
    if a > !s || Float.is_nan a then s := a
  done;
  !s

let nrm2 v =
  (* Scaled two-pass norm: avoids overflow for large counts such as
     cycle measurements in the raw matrices. *)
  let scale = amax v in
  if scale = 0.0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to v.len - 1 do
      let r = unsafe_get v i /. scale in
      s := !s +. (r *. r)
    done;
    scale *. sqrt !s
  end

let fold_left f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc (unsafe_get v i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Row-major panel primitives                                          *)
(* ------------------------------------------------------------------ *)

let check_panel name ~data ~rs ~row0 ~row1 ~col0 ~col1 =
  if rs <= 0 then invalid_arg (name ^ ": non-positive row stride");
  if row0 < 0 || col0 < 0 || col1 > rs then invalid_arg (name ^ ": panel out of bounds");
  if row1 > row0 && col1 > col0 then begin
    let last = ((row1 - 1) * rs) + (col1 - 1) in
    if last >= Float.Array.length data then
      invalid_arg (name ^ ": panel exceeds storage")
  end

let col_sqnorms ~data ~rs ~row0 ~row1 ~col0 ~col1 =
  check_panel "Kernel.col_sqnorms" ~data ~rs ~row0 ~row1 ~col0 ~col1;
  let width = max 0 (col1 - col0) in
  let acc = Array.make width 0.0 in
  for i = row0 to row1 - 1 do
    let base = i * rs in
    for k = 0 to width - 1 do
      let x = Float.Array.unsafe_get data (base + col0 + k) in
      Array.unsafe_set acc k (Array.unsafe_get acc k +. (x *. x))
    done
  done;
  acc

let reflect_panel ~tau ~v ~data ~rs ~row0 ~col0 ~col1 =
  if tau <> 0.0 then begin
    let len = Float.Array.length v in
    check_panel "Kernel.reflect_panel" ~data ~rs ~row0 ~row1:(row0 + len) ~col0 ~col1;
    let width = max 0 (col1 - col0) in
    if width > 0 then begin
      (* w = tau * (V^T A): per-column accumulation in ascending row
         order, traversed row-major so the storage is streamed. *)
      let w = Array.make width 0.0 in
      for i = 0 to len - 1 do
        let vi = Float.Array.unsafe_get v i in
        let base = ((row0 + i) * rs) + col0 in
        for k = 0 to width - 1 do
          Array.unsafe_set w k
            (Array.unsafe_get w k
            +. (vi *. Float.Array.unsafe_get data (base + k)))
        done
      done;
      for k = 0 to width - 1 do
        Array.unsafe_set w k (tau *. Array.unsafe_get w k)
      done;
      (* A <- A - v w^T, skipping exactly-zero coefficients so columns
         already in the reflector's fixed space are left untouched
         bit-for-bit. *)
      for i = 0 to len - 1 do
        let vi = Float.Array.unsafe_get v i in
        let base = ((row0 + i) * rs) + col0 in
        for k = 0 to width - 1 do
          let s = Array.unsafe_get w k in
          if s <> 0.0 then
            Float.Array.unsafe_set data (base + k)
              (Float.Array.unsafe_get data (base + k) -. (s *. vi))
        done
      done
    end
  end
