type projected = {
  event : Hwsim.Event.t;
  representation : Linalg.Vec.t;
  relative_residual : float;
  accepted : bool;
}

let project_one basis ~mean =
  let diag = Expectation.diagnostics basis in
  if diag.Expectation.full_rank then begin
    let s = Linalg.Lstsq.solve (Expectation.mat basis) mean in
    (s.Linalg.Lstsq.x, s.Linalg.Lstsq.relative_residual)
  end
  else begin
    (* Degenerate basis (see Expectation.diagnostics): fall back to a
       rank-aware basic solution rather than dividing by a vanishing
       R diagonal. *)
    let s, _rank = Linalg.Lstsq.solve_rank_aware (Expectation.mat basis) mean in
    (s.Linalg.Lstsq.x, s.Linalg.Lstsq.relative_residual)
  end

let count_projected projected =
  if Obs.enabled () then begin
    let acc =
      List.length (List.filter (fun p -> p.accepted) projected)
    in
    Obs.add "projection.accepted" (float_of_int acc);
    Obs.add "projection.rejected" (float_of_int (List.length projected - acc))
  end;
  projected

(* The full-rank projection, [block] = 4 events at a time.  Their
   means are the columns of one row-major panel, and every step runs on
   the four columns at once, their running values in registers: four
   independent chains where one event had one.  Every column sees
   exactly the floating-point operations of [Qr.apply_qt], [Qr.solve_r]
   and [Mat.mul_vec] on its own event, in their order:
   [b +. (alpha *. v)] with [alpha = -.tau *. w] as in
   [Householder.apply_to_view], and no column is skipped (a zero
   [alpha] still turns a -0 into +0).  When both operands of an
   addition or a product are NaN, the result is the one the instruction
   takes as its first, so each operation keeps the per-event code's
   operands in its order and in registers where that code has them
   there; the residual norms are [Vec.norm2]'s own.  A last panel of
   fewer than four events runs all four columns; the spare ones hold
   whatever an earlier panel left and are never read.  The panels are
   made once per call, and are small enough to live in the minor
   heap. *)
let block = 4

module F = Float.Array

let project_full ~tol basis classified =
  let e = Expectation.mat basis in
  let m = Linalg.Mat.rows e and n = Linalg.Mat.cols e in
  let f = Linalg.Qr.factor e in
  let hs = Linalg.Qr.reflectors f and r = Linalg.Qr.r f in
  let ed = Linalg.Mat.storage e and ers = Linalg.Mat.row_stride e in
  let rd = Linalg.Mat.storage r and rrs = Linalg.Mat.row_stride r in
  let rdim = Linalg.Mat.rows r in
  (* [mp]: the means; [qp]: Q^T means, then the residuals E x - mean;
     [xp]: the representations (n x 4). *)
  let mp = F.make (m * block) 0.0 and qp = F.make (m * block) 0.0 in
  let xp = F.make (n * block) 0.0 in
  let res = Linalg.Vec.create m in
  (* Events [o, o + w) of [cs], projected in order. *)
  let panel (cs : Noise_filter.classified array) o w =
    for c = 0 to w - 1 do
      let mean = cs.(o + c).mean in
      if Linalg.Vec.dim mean <> m then invalid_arg "Qr.apply_qt: dimension mismatch";
      for i = 0 to m - 1 do
        F.unsafe_set mp ((i * block) + c) (F.unsafe_get mean i)
      done
    done;
    F.blit mp 0 qp 0 (m * block);
    (* Q^T: reflector k on rows k.., as [Qr.apply_qt]. *)
    Array.iteri
      (fun k (h : Linalg.Householder.reflector) ->
        if h.tau <> 0.0 then begin
          let v = h.v in
          let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
          for i = 0 to F.length v - 1 do
            let vi = F.unsafe_get v i and at = (k + i) * block in
            s0 := !s0 +. (vi *. F.unsafe_get qp at);
            s1 := !s1 +. (vi *. F.unsafe_get qp (at + 1));
            s2 := !s2 +. (vi *. F.unsafe_get qp (at + 2));
            s3 := !s3 +. (vi *. F.unsafe_get qp (at + 3))
          done;
          let a0 = -.h.tau *. !s0 and a1 = -.h.tau *. !s1 in
          let a2 = -.h.tau *. !s2 and a3 = -.h.tau *. !s3 in
          for i = 0 to F.length v - 1 do
            let vi = F.unsafe_get v i and at = (k + i) * block in
            F.unsafe_set qp at (F.unsafe_get qp at +. (a0 *. vi));
            F.unsafe_set qp (at + 1) (F.unsafe_get qp (at + 1) +. (a1 *. vi));
            F.unsafe_set qp (at + 2) (F.unsafe_get qp (at + 2) +. (a2 *. vi));
            F.unsafe_set qp (at + 3) (F.unsafe_get qp (at + 3) +. (a3 *. vi))
          done
        end)
      hs;
    (* R x = Q^T mean, as [Qr.solve_r]; rows past R's stay zero. *)
    F.fill xp 0 (n * block) 0.0;
    for i = rdim - 1 downto 0 do
      let d = F.unsafe_get rd ((i * rrs) + i) in
      if Float.abs d < 1e-300 then failwith "Qr.solve_r: singular";
      let at = i * block in
      let s0 = ref (F.unsafe_get qp at) and s1 = ref (F.unsafe_get qp (at + 1)) in
      let s2 = ref (F.unsafe_get qp (at + 2)) and s3 = ref (F.unsafe_get qp (at + 3)) in
      for j = i + 1 to n - 1 do
        let rij = F.unsafe_get rd ((i * rrs) + j) and xj = j * block in
        s0 := !s0 -. (rij *. F.unsafe_get xp xj);
        s1 := !s1 -. (rij *. F.unsafe_get xp (xj + 1));
        s2 := !s2 -. (rij *. F.unsafe_get xp (xj + 2));
        s3 := !s3 -. (rij *. F.unsafe_get xp (xj + 3))
      done;
      F.unsafe_set xp at (!s0 /. d);
      F.unsafe_set xp (at + 1) (!s1 /. d);
      F.unsafe_set xp (at + 2) (!s2 /. d);
      F.unsafe_set xp (at + 3) (!s3 /. d)
    done;
    (* E x - mean, row by row, as [Mat.mul_vec] and [Vec.sub]. *)
    for i = 0 to m - 1 do
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      for j = 0 to n - 1 do
        let eij = F.unsafe_get ed ((i * ers) + j) and xj = j * block in
        s0 := !s0 +. (eij *. F.unsafe_get xp xj);
        s1 := !s1 +. (eij *. F.unsafe_get xp (xj + 1));
        s2 := !s2 +. (eij *. F.unsafe_get xp (xj + 2));
        s3 := !s3 +. (eij *. F.unsafe_get xp (xj + 3))
      done;
      let at = i * block in
      F.unsafe_set qp at (!s0 -. F.unsafe_get mp at);
      F.unsafe_set qp (at + 1) (!s1 -. F.unsafe_get mp (at + 1));
      F.unsafe_set qp (at + 2) (!s2 -. F.unsafe_get mp (at + 2));
      F.unsafe_set qp (at + 3) (!s3 -. F.unsafe_get mp (at + 3))
    done;
    List.init w (fun c ->
        let mean = cs.(o + c).mean in
        for i = 0 to m - 1 do
          F.unsafe_set res i (F.unsafe_get qp ((i * block) + c))
        done;
        let mnorm = Linalg.Vec.norm2 mean in
        let relative_residual =
          if mnorm = 0.0 then 0.0 else Linalg.Vec.norm2 res /. mnorm
        in
        {
          event = cs.(o + c).event;
          representation = Linalg.Vec.init n (fun j -> F.unsafe_get xp ((j * block) + c));
          relative_residual;
          accepted = relative_residual <= tol;
        })
  in
  let cs = Array.of_list classified in
  let out = ref [] and o = ref 0 in
  while !o < Array.length cs do
    let w = min block (Array.length cs - !o) in
    out := List.rev_append (panel cs !o w) !out;
    o := !o + w
  done;
  List.rev !out

let project ~tol basis classified =
  count_projected @@
  let diag = Expectation.diagnostics basis in
  if diag.Expectation.full_rank then project_full ~tol basis classified
  else
    List.map
      (fun (c : Noise_filter.classified) ->
        let representation, relative_residual = project_one basis ~mean:c.mean in
        {
          event = c.event;
          representation;
          relative_residual;
          accepted = relative_residual <= tol;
        })
      classified

let accepted projected = List.filter (fun p -> p.accepted) projected

let no_accepted_events = "Projection.to_matrix: no accepted events"

let to_matrix projected =
  let acc = accepted projected in
  if acc = [] then invalid_arg no_accepted_events;
  let cols = Array.of_list (List.map (fun p -> p.representation) acc) in
  let names = Array.of_list (List.map (fun p -> p.event.Hwsim.Event.name) acc) in
  (Linalg.Mat.of_col_vecs cols, names)
