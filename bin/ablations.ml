(* Run every ablation sweep and print the structured summary used by
   EXPERIMENTS.md. *)

let () =
  let manifest = ref None in
  let store = ref None in
  let specs =
    [
      ( "--manifest",
        Arg.String (fun s -> manifest := Some s),
        "FILE  Write each ablation run's manifest to FILE (then FILE.1, \
         FILE.2, ... — one sweep emits many runs)" );
      ( "--store",
        Arg.String (fun s -> store := Some s),
        "DIR  Ingest each ablation run's manifest into the run store at DIR" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ablations [--manifest FILE] [--store DIR]";
  let manifest =
    Obs_cli.emitter ~command:"ablations" ?manifest:!manifest ?store:!store ()
  in
  print_string (Core.Ablation.summary ?manifest ())
