(* Schema agreement between the staged pipeline's artifact encoders
   and decoders: a synthetic classified shard must survive the
   to_json -> of_json round trip structurally intact, and an artifact
   document must decode under this build's schema version.  Catches
   the drift mode where an encoder gains a field (or bumps the
   version) without the decoder following — before a multi-machine
   sweep ships artifacts nobody can merge. *)

module D = Core.Diagnostic
module Stage = Core.Stage

let diag ?category ?(data = []) rule severity subject fmt =
  Printf.ksprintf (fun msg -> D.make ?category ~data ~rule ~severity ~subject msg) fmt

(* A minimal but fully populated shard: two events, one kept and one
   rejected, with a non-finite variability to exercise the fnum
   encoding. *)
let synthetic_shard () =
  let event name desc = Hwsim.Event.make ~name ~desc [] in
  {
    Stage.category = "lint-synthetic";
    machine = "lint (no machine)";
    shard_config =
      { Stage.tau = 1e-10; alpha = 5e-4; projection_tol = 0.02; reps = 3 };
    range = { Stage.lo = 0; hi = 2 };
    total = 2;
    row_labels = [| "row0"; "row1" |];
    entries =
      [
        {
          Core.Noise_filter.event = event "LINT_EVENT_A" "synthetic kept event";
          variability = 0.0;
          mean = Linalg.Vec.of_array [| 1.0; 2.0 |];
          status = Core.Noise_filter.Kept;
        };
        {
          Core.Noise_filter.event = event "LINT_EVENT_B" "synthetic noisy event";
          variability = Float.nan;
          mean = Linalg.Vec.of_array [| 0.5; Float.infinity |];
          status = Core.Noise_filter.Too_noisy;
        };
      ];
  }

let analyze_artifact json =
  match Stage.shard_of_json json with
  | Ok _ -> []
  | Error msg ->
    [
      diag
        ~data:[ ("decoder_error", Jsonio.Str msg);
                ("decoder_version",
                 Jsonio.Num (float_of_int Stage.shard_schema_version)) ]
        "stage/schema-drift" D.Error "classified-shard"
        "artifact does not decode under this build's shard schema \
         (version %d): %s"
        Stage.shard_schema_version msg;
    ]

let roundtrip () =
  let shard = synthetic_shard () in
  let json = Stage.shard_to_json shard in
  (* The emitted document must also survive the strict text parser:
     encoder -> to_string -> of_string -> decoder is the actual
     multi-process path. *)
  match Jsonio.of_string (Jsonio.to_string json) with
  | Error msg ->
    [
      diag
        ~data:[ ("parser_error", Jsonio.Str msg) ]
        "stage/schema-drift" D.Error "classified-shard"
        "encoded artifact is not parseable JSON: %s" msg;
    ]
  | Ok reparsed -> (
    match Stage.shard_of_json reparsed with
    | Error msg ->
      [
        diag
          ~data:[ ("decoder_error", Jsonio.Str msg);
                  ("decoder_version",
                   Jsonio.Num (float_of_int Stage.shard_schema_version)) ]
          "stage/schema-drift" D.Error "classified-shard"
          "encoder output (schema version %d) is rejected by the decoder: %s"
          Stage.shard_schema_version msg;
      ]
    | Ok decoded ->
      if Stage.shard_equal shard decoded then []
      else
        [
          diag "stage/schema-drift" D.Error "classified-shard"
            "shard artifact round trip is lossy: decoded shard differs \
             structurally from the encoded one";
        ])
