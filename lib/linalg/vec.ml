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

let of_list l =
  let a = Array.of_list l in
  init (Array.length a) (Array.unsafe_get a)

let of_array a = init (Array.length a) (Array.unsafe_get a)

let to_array v =
  let n = dim v in
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (unsafe_get v i)
  done;
  a

let view v = Kernel.full v
let slice v pos len = Float.Array.sub v pos len

let blit src dst =
  let n = dim src in
  if dim dst <> n then invalid_arg "Vec.blit: dimension mismatch";
  Float.Array.blit src 0 dst 0 n

let check_same_dim name x y =
  if dim x <> dim y then invalid_arg (name ^ ": dimension mismatch")

let dot x y =
  check_same_dim "Vec.dot" x y;
  Kernel.dot (Kernel.full x) (Kernel.full y)

let norm_inf x = Kernel.amax (Kernel.full x)
let norm1 x = Kernel.asum (Kernel.full x)
let norm2 x = Kernel.nrm2 (Kernel.full x)
let scale alpha x = init (dim x) (fun i -> alpha *. unsafe_get x i)
let scale_inplace alpha x = Kernel.scal alpha (Kernel.full x)

let map2 f x y =
  check_same_dim "Vec.map2" x y;
  init (dim x) (fun i -> f (unsafe_get x i) (unsafe_get y i))

let add x y = map2 ( +. ) x y
let sub x y = map2 ( -. ) x y

let axpy ~alpha ~x ~y =
  check_same_dim "Vec.axpy" x y;
  Kernel.axpy ~alpha ~x:(Kernel.full x) ~y:(Kernel.full y)

let equal ?(eps = 0.0) x y =
  dim x = dim y
  && begin
       let ok = ref true in
       for i = 0 to dim x - 1 do
         if Float.abs (unsafe_get x i -. unsafe_get y i) > eps then ok := false
       done;
       !ok
     end

let concat = Float.Array.concat

let iteri f v =
  for i = 0 to dim v - 1 do
    f i (unsafe_get v i)
  done

let fold_left f init v =
  let acc = ref init in
  for i = 0 to dim v - 1 do
    acc := f !acc (unsafe_get v i)
  done;
  !acc

let map f x = init (dim x) (fun i -> f (unsafe_get x i))

let pp ppf v =
  Format.fprintf ppf "(";
  iteri
    (fun i x -> if i = 0 then Format.fprintf ppf "%g" x else Format.fprintf ppf ", %g" x)
    v;
  Format.fprintf ppf ")"
