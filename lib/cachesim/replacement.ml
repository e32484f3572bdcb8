type kind = Lru | Fifo | Random of Numkit.Rng.t

let kind_name = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Random _ -> "random"
