(* Emit figure data series in a gnuplot/CSV-friendly format.

   fig 2a..2d: sorted max-RNMSE variability per event.
   fig 3:      normalized cache metric combinations vs signatures. *)

open Cmdliner

let fig =
  let doc = "Figure to emit: 2a (branch), 2b (cpu-flops), 2c (gpu-flops), \
             2d (dcache), or 3 (cache metric approximations)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FIG" ~doc)

let gnuplot_dir =
  let doc = "Instead of printing the series, write gnuplot-ready .dat and \
             .gp files into $(docv)." in
  Arg.(value & opt (some string) None & info [ "gnuplot" ] ~docv:"DIR" ~doc)

let write_file dir name contents =
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  Printf.printf "wrote %s\n" path

let category_of_fig = function
  | "2a" -> Some Core.Category.Branch
  | "2b" -> Some Core.Category.Cpu_flops
  | "2c" -> Some Core.Category.Gpu_flops
  | "2d" -> Some Core.Category.Dcache
  | _ -> None

let emit_fig2 category =
  let r = Core.Pipeline.run category in
  Printf.printf "# sorted event variabilities, %s, tau=%g\n"
    (Core.Category.name category) r.config.tau;
  Printf.printf "# index variability event\n";
  Array.iteri
    (fun i (name, v) -> Printf.printf "%d %.6e %s\n" i v name)
    (Core.Report.fig2_series r)

let emit_fig3 () =
  let r = Core.Pipeline.run Core.Category.Dcache in
  List.iter
    (fun (p : Core.Report.fig3_panel) ->
      Printf.printf "# %s\n# config measured signature\n" p.metric;
      Array.iteri
        (fun i label ->
          Printf.printf "%s %.6f %.6f\n" label p.measured.(i) p.signature.(i))
        p.config_labels;
      print_newline ())
    (Core.Report.fig3_panels r)

let main fig gnuplot_dir =
  match (fig, gnuplot_dir) with
  | "3", None ->
    emit_fig3 ();
    0
  | "3", Some dir ->
    let r = Core.Pipeline.run Core.Category.Dcache in
    List.iter
      (fun (slug, dat, gp) ->
        write_file dir (Printf.sprintf "fig3_%s.dat" slug) dat;
        write_file dir (Printf.sprintf "fig3_%s.gp" slug) gp)
      (Core.Report.fig3_gnuplot r);
    0
  | f, dir ->
    (match category_of_fig f with
     | Some category ->
       (match dir with
        | None -> emit_fig2 category
        | Some dir ->
          let r = Core.Pipeline.run category in
          let dat, gp = Core.Report.fig2_gnuplot r in
          let name = Core.Category.name category in
          write_file dir (Printf.sprintf "fig2_%s.dat" name) dat;
          write_file dir (Printf.sprintf "fig2_%s.gp" name) gp);
       0
     | None ->
       prerr_endline "figures: expected one of 2a, 2b, 2c, 2d, 3";
       2)

let cmd =
  let info = Cmd.info "figures" ~doc:"Emit the paper's figure data series" in
  Cmd.v info Term.(const main $ fig $ gnuplot_dir)

let () = exit (Cmd.eval' cmd)
