type t =
  | Always_taken
  | Never_taken
  | Alternate
  | Periodic of bool array
  | Random of string

let outcome p i =
  match p with
  | Always_taken -> true
  | Never_taken -> false
  | Alternate -> i mod 2 = 0
  | Periodic block ->
    if Array.length block = 0 then invalid_arg "Pattern.outcome: empty period";
    block.(i mod Array.length block)
  | Random seed ->
    (* One fresh splitmix64 draw per occurrence keeps the function
       pure in (seed, i).  The generator is seeded from the hash of
       [seed ^ "#" ^ string_of_int i], streamed without building it. *)
    let open Numkit.Rng in
    bool (create (hash_extend_int (hash_extend (hash_string seed) "#") i))

let outcomes p ~n = Array.init n (outcome p)

let taken_fraction p ~n =
  if n <= 0 then invalid_arg "Pattern.taken_fraction: n <= 0";
  let taken = ref 0 in
  for i = 0 to n - 1 do
    if outcome p i then incr taken
  done;
  float_of_int !taken /. float_of_int n
