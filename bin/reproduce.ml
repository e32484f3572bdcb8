(* Print the machine-checked reproduction scorecard; exit non-zero if
   any claim fails, so CI can gate on the reproduction itself. *)

let () =
  let manifest = ref None in
  let store = ref None in
  let specs =
    [
      ( "--manifest",
        Arg.String (fun s -> manifest := Some s),
        "FILE  Write each checked run's manifest to FILE (then FILE.1, \
         FILE.2, ...)" );
      ( "--store",
        Arg.String (fun s -> store := Some s),
        "DIR  Ingest each checked run's manifest into the run store at DIR" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "reproduce [--manifest FILE] [--store DIR]";
  let manifest =
    Obs_cli.emitter ~command:"reproduce" ?manifest:!manifest ?store:!store ()
  in
  let verdicts = Core.Experiment.check_all ?manifest () in
  print_string (Core.Experiment.scorecard verdicts);
  exit (if Core.Experiment.all_pass verdicts then 0 else 1)
