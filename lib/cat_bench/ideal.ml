module Keys = Hwsim.Keys
module Activity = Hwsim.Activity

type ideal = {
  label : string;
  key : string;
  vector : float array;
}

let read rows key = Array.map (fun a -> Activity.get a key) rows

let of_keys rows labelled_keys =
  List.map (fun (label, key) -> { label; key; vector = read rows key }) labelled_keys

let cpu_flops () =
  let labelled =
    List.concat_map
      (fun (precision, fma) ->
        List.map
          (fun width ->
            ( Keys.flops_label ~precision ~width ~fma,
              Keys.flops ~precision ~width ~fma ))
          [ Keys.Scalar; Keys.W128; Keys.W256; Keys.W512 ])
      [ (Keys.Single, false); (Keys.Double, false);
        (Keys.Single, true); (Keys.Double, true) ]
  in
  of_keys (Flops_kernels.rows ()) labelled

let branch_of_rows rows =
  of_keys rows
    [ ("CE", Keys.branch_cond_exec);
      ("CR", Keys.branch_cond_retired);
      ("T", Keys.branch_taken);
      ("D", Keys.branch_uncond);
      ("M", Keys.branch_misp) ]

let branch () = branch_of_rows (Branch_kernels.rows ())

let gpu_flops () =
  (* Table II order: A, S, M, SQ, F outer; H, S, D inner. *)
  let labelled =
    List.concat_map
      (fun op ->
        List.map
          (fun precision ->
            (Keys.gpu_label ~op ~precision, Keys.gpu ~device:0 ~op ~precision))
          [ Keys.F16; Keys.F32; Keys.F64 ])
      [ Keys.Add; Keys.Sub; Keys.Mul; Keys.Trans; Keys.Fma ]
  in
  of_keys (Gpu_kernels.rows ()) labelled

let dcache () =
  let rows =
    Array.of_list (List.map Cache_kernels.ideal_row Cache_kernels.configs)
  in
  of_keys rows
    [ ("L1DM", Keys.cache_l1_dm);
      ("L1DH", Keys.cache_l1_dh);
      ("L2DH", Keys.cache_l2_dh);
      ("L3DH", Keys.cache_l3_dh) ]
