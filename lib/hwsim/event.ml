type t = {
  name : string;
  description : string;
  terms : (float * string) list;
  offset : float;
  noise : Noise_model.t;
}

let make ?(offset = 0.0) ?(noise = Noise_model.Exact) ~name ~desc terms =
  { name; description = desc; terms; offset; noise }

let ideal_value t activity =
  List.fold_left
    (fun acc (c, k) -> acc +. (c *. Activity.get activity k))
    t.offset t.terms
