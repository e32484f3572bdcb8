let once f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
      ignore (Atomic.compare_and_set cell None (Some (f ())));
      Option.get (Atomic.get cell)
