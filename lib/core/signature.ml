type t = {
  metric : string;
  coords : (string * float) list;
}

let make metric coords = { metric; coords }

let sum name sigs =
  (* Coordinate-wise sum with merged labels. *)
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun t ->
      List.iter
        (fun (label, c) ->
          match Hashtbl.find_opt table label with
          | Some cell -> cell := !cell +. c
          | None ->
            order := label :: !order;
            Hashtbl.add table label (ref c))
        t.coords)
    sigs;
  {
    metric = name;
    coords = List.rev_map (fun l -> (l, !(Hashtbl.find table l))) !order;
  }

let to_vector t basis =
  let v = Linalg.Vec.create (Expectation.dim basis) in
  List.iter
    (fun (label, c) -> Linalg.Vec.set v (Expectation.label_index basis label) c)
    t.coords;
  v

(* Widths in basis order; [w] maps a width symbol fragment to a
   coefficient list quickly. *)
let widths = [ "_SCAL"; "128"; "256"; "512" ]

let fp_coords ~prefix ~coefs =
  List.map2 (fun w c -> (prefix ^ w, c)) widths coefs

let cpu_flops =
  [
    make "SP Instrs."
      (fp_coords ~prefix:"S" ~coefs:[ 1.; 1.; 1.; 1. ]
      @ List.map (fun (l, c) -> (l ^ "_FMA", c)) (fp_coords ~prefix:"S" ~coefs:[ 2.; 2.; 2.; 2. ]));
    make "SP Ops."
      (fp_coords ~prefix:"S" ~coefs:[ 1.; 4.; 8.; 16. ]
      @ List.map (fun (l, c) -> (l ^ "_FMA", c)) (fp_coords ~prefix:"S" ~coefs:[ 2.; 8.; 16.; 32. ]));
    make "SP FMA Instrs."
      (List.map (fun (l, c) -> (l ^ "_FMA", c)) (fp_coords ~prefix:"S" ~coefs:[ 2.; 2.; 2.; 2. ]));
    make "DP Instrs."
      (fp_coords ~prefix:"D" ~coefs:[ 1.; 1.; 1.; 1. ]
      @ List.map (fun (l, c) -> (l ^ "_FMA", c)) (fp_coords ~prefix:"D" ~coefs:[ 2.; 2.; 2.; 2. ]));
    make "DP Ops."
      (fp_coords ~prefix:"D" ~coefs:[ 1.; 2.; 4.; 8. ]
      @ List.map (fun (l, c) -> (l ^ "_FMA", c)) (fp_coords ~prefix:"D" ~coefs:[ 2.; 4.; 8.; 16. ]));
    make "DP FMA Instrs."
      (List.map (fun (l, c) -> (l ^ "_FMA", c)) (fp_coords ~prefix:"D" ~coefs:[ 2.; 2.; 2.; 2. ]));
  ]

let gpu_flops =
  [
    make "HP Add Ops." [ ("AH", 1.) ];
    make "HP Sub Ops." [ ("SH", 1.) ];
    make "HP Add and Sub Ops." [ ("AH", 1.); ("SH", 1.) ];
    make "All HP Ops." [ ("AH", 1.); ("SH", 1.); ("MH", 1.); ("SQH", 1.); ("FH", 2.) ];
    make "All SP Ops." [ ("AS", 1.); ("SS", 1.); ("MS", 1.); ("SQS", 1.); ("FS", 2.) ];
    make "All DP Ops." [ ("AD", 1.); ("SD", 1.); ("MD", 1.); ("SQD", 1.); ("FD", 2.) ];
  ]

let branch =
  [
    make "Unconditional Branches." [ ("D", 1.) ];
    make "Conditional Branches Taken." [ ("T", 1.) ];
    make "Conditional Branches Not Taken." [ ("CR", 1.); ("T", -1.) ];
    make "Mispredicted Branches." [ ("M", 1.) ];
    make "Correctly Predicted Branches." [ ("CR", 1.); ("M", -1.) ];
    make "Conditional Branches Retired." [ ("CR", 1.) ];
    make "Conditional Branches Executed." [ ("CE", 1.) ];
  ]

let dcache =
  [
    make "L1 Misses." [ ("L1DM", 1.) ];
    make "L1 Hits." [ ("L1DH", 1.) ];
    make "L1 Reads." [ ("L1DM", 1.); ("L1DH", 1.) ];
    make "L2 Hits." [ ("L2DH", 1.) ];
    make "L2 Misses." [ ("L1DM", 1.); ("L2DH", -1.) ];
    make "L3 Hits." [ ("L3DH", 1.) ];
  ]

let find sigs metric = List.find (fun s -> s.metric = metric) sigs
