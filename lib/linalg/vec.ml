type t = floatarray

external dim : t -> int = "%floatarray_length"
external get : t -> int -> float = "%floatarray_safe_get"
external set : t -> int -> float -> unit = "%floatarray_safe_set"
external unsafe_get : t -> int -> float = "%floatarray_unsafe_get"
external unsafe_set : t -> int -> float -> unit = "%floatarray_unsafe_set"

let create n = Float.Array.make n 0.0

let init n f =
  let a = Float.Array.create n in
  for i = 0 to n - 1 do
    unsafe_set a i (f i)
  done;
  a

let copy = Float.Array.copy
let fill v x = Float.Array.fill v 0 (dim v) x

let of_array a =
  let v = Float.Array.create (Array.length a) in
  for i = 0 to Array.length a - 1 do
    unsafe_set v i (Array.unsafe_get a i)
  done;
  v

let to_array v =
  let n = dim v in
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (unsafe_get v i)
  done;
  a

let view v = Kernel.full v

let blit src dst =
  let n = dim src in
  if dim dst <> n then invalid_arg "Vec.blit: dimension mismatch";
  Float.Array.blit src 0 dst 0 n

let check_same_dim name x y =
  if dim x <> dim y then invalid_arg (name ^ ": dimension mismatch")

let dot x y =
  check_same_dim "Vec.dot" x y;
  Kernel.dot (Kernel.full x) (Kernel.full y)

let norm2 x = Kernel.nrm2 (Kernel.full x)
let scale_inplace alpha x = Kernel.scal alpha (Kernel.full x)

let map2 f x y =
  check_same_dim "Vec.map2" x y;
  init (dim x) (fun i -> f (unsafe_get x i) (unsafe_get y i))

let sub x y = map2 ( -. ) x y

let axpy ~alpha ~x ~y =
  check_same_dim "Vec.axpy" x y;
  Kernel.axpy ~alpha ~x:(Kernel.full x) ~y:(Kernel.full y)

let iteri f v =
  for i = 0 to dim v - 1 do
    f i (unsafe_get v i)
  done
