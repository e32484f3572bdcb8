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

let hash_extend h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    h := Int64.mul (Int64.logxor !h (Int64.of_int c)) fnv_prime
  done;
  !h

let hash_string s = hash_extend 0xCBF29CE484222325L s

let hash_extend_int h n =
  let h = ref h in
  if n < 0 then
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code '-'))) fnv_prime;
  (* Digits of [m = -|n|], most significant first; working on the
     non-positive side cannot overflow, even at [min_int]. *)
  let m = if n < 0 then n else -n in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    let digit = -((m / !p) mod 10) in
    let c = Char.code '0' + digit in
    h := Int64.mul (Int64.logxor !h (Int64.of_int c)) fnv_prime;
    p := !p / 10
  done;
  !h

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

let normal t ~mu ~sigma =
  assert (sigma >= 0.0);
  if sigma = 0.0 then mu
  else begin
    (* Box-Muller; redraw [u1] to guard against log 0. *)
    let u1 = ref (float t) in
    while not (!u1 > 0.0) do
      u1 := float t
    done;
    let u2 = float t in
    let r = sqrt (-2.0 *. log !u1) in
    mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))
  end

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
