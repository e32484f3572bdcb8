type t = (string, float) Hashtbl.t

let create () = Hashtbl.create 64

let get t k = match Hashtbl.find_opt t k with Some v -> v | None -> 0.0

let set t k v = Hashtbl.replace t k v

let add t k v = Hashtbl.replace t k (get t k +. v)

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

let of_list l =
  let t = create () in
  List.iter (fun (k, v) -> add t k v) l;
  t

let merge a b =
  let t = Hashtbl.copy a in
  Hashtbl.iter (fun k v -> add t k v) b;
  t
