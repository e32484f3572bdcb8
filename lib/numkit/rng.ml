(* Bytes 0-7 hold the splitmix64 state, bytes 8-15 the seed [split]
   derives children from.  Reading and writing them with
   [get_int64_le] / [set_int64_le] keeps the state unboxed: a draw
   allocates nothing for it. *)
type t = Bytes.t

let[@inline] state t = Bytes.get_int64_le t 0
let seed t = Bytes.get_int64_le t 8

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let reseed t s =
  Bytes.set_int64_le t 0 s;
  Bytes.set_int64_le t 8 s

let create s =
  let t = Bytes.create 16 in
  reseed t s;
  t

(* FNV-1a, 64-bit.  Plain loops over a local ref keep the state
   unboxed: one boxed result per call, nothing per byte. *)
let fnv_prime = 0x100000001B3L

let[@inline] fnv_byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) fnv_prime

let hash_extend h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let hash_string s = hash_extend 0xCBF29CE484222325L s

(* The digits of [m <= 0] (non-positive, so that [min_int] cannot
   overflow), most significant first, by the constant divisions
   [m / 10] and [m mod 10]. *)
let rec hash_extend_digits h m =
  let h = if m <= -10 then hash_extend_digits h (m / 10) else h in
  fnv_byte h (Char.code '0' - (m mod 10))

let hash_extend_int h n =
  if n < 0 then hash_extend_digits (fnv_byte h (Char.code '-')) n
  else hash_extend_digits h (-n)

(* [hash_extend_int h n] for [0 <= n < 100], inline: row and
   repetition numbers. *)
let[@inline] hash_extend_small h n =
  if n < 10 then fnv_byte h (Char.code '0' + n)
  else fnv_byte (fnv_byte h (Char.code '0' + (n / 10))) (Char.code '0' + (n mod 10))

let reseed_int t h n =
  if n >= 0 && n < 100 then reseed t (hash_extend_small h n)
  else reseed t (hash_extend_int h n)

let of_string s = create (hash_string s)

let split t label = create (mix (Int64.logxor (seed t) (hash_string label)))

let copy = Bytes.copy

let[@inline] next_int64 t =
  let s = Int64.add (state t) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let[@inline] float t =
  (* 53 high bits -> [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for
     n << 2^63 and determinism is what matters here. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int n))

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Box-Muller's two uniforms, [u1] redrawn to guard against log 0,
   and its transform. *)
let[@inline] positive_float t =
  let u = ref (float t) in
  while not (!u > 0.0) do
    u := float t
  done;
  !u

let[@inline] box_muller ~sigma u1 u2 =
  let r = sqrt (-2.0 *. log u1) in
  sigma *. r *. cos (2.0 *. Float.pi *. u2)

let normal t ~mu ~sigma =
  assert (sigma >= 0.0);
  if sigma = 0.0 then mu
  else begin
    let u1 = positive_float t in
    let u2 = float t in
    mu +. box_muller ~sigma u1 u2
  end

(* For [u2] strictly between these, [cos (2.0 *. Float.pi *. u2)] is
   negative.  They sit 2^-40 (2^13 draws of [float]) inside 1/4 and
   3/4, where the sign turns within a few draws of the exact edge;
   test_numkit's boundary case checks every [u2] within 2^16 draws of
   each.  Inside them the true cosine is below -5e-12, far beyond the
   rounding of the product and of [cos]. *)
let cos_negative_lo = 0x1.0000000004p-2 (* 1/4 + 2^-40 *)
let cos_negative_hi = 0x1.7ffffffffep-1 (* 3/4 - 2^-40 *)

let normal_pos t ~sigma =
  assert (sigma >= 0.0);
  if sigma = 0.0 then 0.0
  else begin
    let u1 = positive_float t in
    let u2 = float t in
    if u2 > cos_negative_lo && u2 < cos_negative_hi then 0.0
    else Float.max 0.0 (box_muller ~sigma u1 u2)
  end

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

(* Sattolo's algorithm over the first [n] cells: draw [j] is [int t i]
   for [i = n - 1] down to [1], so the permutation and the final state
   are [int]'s, bit for bit.  The state stays in a local for the whole
   loop and is written back once: reading it from the bytes on every
   draw would put a store-to-load round trip on the draw chain.  The
   array's type is fixed, so its reads and writes check no float-array
   tag, and [j < i < n <= length a] makes them safe unchecked. *)
let sattolo t (a : int array) n =
  if n < 0 || n > Array.length a then invalid_arg "Rng.sattolo: n out of bounds";
  let s = ref (state t) in
  for i = n - 1 downto 1 do
    s := Int64.add !s golden_gamma;
    let j =
      Int64.to_int (Int64.rem (Int64.shift_right_logical (mix !s) 1) (Int64.of_int i))
    in
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  done;
  Bytes.set_int64_le t 0 !s
