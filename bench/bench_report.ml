(* The one bench-report schema and the one bench driver: every
   benchmark executable in this directory emits an Obs.Manifest run
   manifest (source "bench:*") through [main], and regression checking
   compares two manifests metric by metric.

   Shared by shard_bench and the bench_check gate, so there is exactly
   one notion of "what a bench records", one command line, and one
   regression policy, Obs.Trend.limit (which `analyze trend` applies
   too):

   - a metric (a wall-time or memory measurement) regresses when
       current > max(baseline * ratio, baseline + slack_ms)
     with a deliberately loose ratio 3.0 and slack 5 ms, so the gate
     survives machine-to-machine variance while still catching
     order-of-magnitude regressions;
   - counters present in both manifests (chosen-event counts and
     other facts of the result) must match exactly — they are
     correctness, not timing. *)

(* A bench's own manifest: it must decode strictly, come from
   [source] and record at least one metric. *)
let check_manifest ~source path =
  match Obs.Manifest.load path with
  | Ok m when m.Obs.Manifest.source <> source ->
    Error
      (Printf.sprintf "%s: manifest source is %S, expected %S" path
         m.Obs.Manifest.source source)
  | Ok m when m.Obs.Manifest.metrics = [] ->
    Error (path ^ ": manifest records no metrics")
  | r -> r

(* ------------------------------------------------------------------ *)
(* Trajectory log                                                      *)
(* ------------------------------------------------------------------ *)

(* One JSONL line per recorded bench run: enough to plot any metric
   over time without parsing full manifests.  The log is append-only
   and [append_trajectory] is its one writer: the committed history is
   never rewritten, whatever the local run store holds. *)
let trajectory_line (m : Obs.Manifest.t) =
  Jsonio.to_string_compact
    (Jsonio.Obj
       [
         ("created_unix", Jsonio.Num m.Obs.Manifest.created_unix);
         ("source", Jsonio.Str m.Obs.Manifest.source);
         ("label", Jsonio.Str m.Obs.Manifest.label);
         ("config_digest", Jsonio.Str m.Obs.Manifest.config_digest);
         ( "metrics",
           Jsonio.Obj
             (List.map
                (fun (k, v) -> (k, Jsonio.fnum v))
                m.Obs.Manifest.metrics) );
       ])

let append_trajectory path m =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (trajectory_line m ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Regression policy                                                   *)
(* ------------------------------------------------------------------ *)

type verdict = {
  metric : string;
  baseline : float;
  current : float;
  limit : float;
  regressed : bool;
}

type comparison = {
  verdicts : verdict list;  (* metrics present in both manifests *)
  missing : string list;  (* baseline metrics absent from current *)
  added : string list;  (* current metrics absent from baseline *)
  counter_mismatches : (string * float * float) list;
      (* counters present in both but unequal *)
}

let compare_manifests ~(baseline : Obs.Manifest.t) (current : Obs.Manifest.t)
    =
  let verdicts =
    List.filter_map
      (fun (name, base) ->
        Option.map
          (fun cur ->
            let limit = Obs.Trend.limit base in
            {
              metric = name;
              baseline = base;
              current = cur;
              limit;
              regressed = cur > limit;
            })
          (Obs.Manifest.find_metric current name))
      baseline.Obs.Manifest.metrics
  in
  let missing =
    List.filter_map
      (fun (name, _) ->
        if Obs.Manifest.find_metric current name = None then Some name
        else None)
      baseline.Obs.Manifest.metrics
  in
  let added =
    List.filter_map
      (fun (name, _) ->
        if Obs.Manifest.find_metric baseline name = None then Some name
        else None)
      current.Obs.Manifest.metrics
  in
  let counter_mismatches =
    List.filter_map
      (fun (name, base) ->
        match Obs.Manifest.find_counter current name with
        | Some cur when not (Float.equal base cur) -> Some (name, base, cur)
        | _ -> None)
      baseline.Obs.Manifest.counters
  in
  { verdicts; missing; added; counter_mismatches }

let regressions c = List.filter (fun v -> v.regressed) c.verdicts

let passed c = regressions c = [] && c.counter_mismatches = []

let render_comparison c =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-40s %12s %12s %12s  %s\n" "metric" "baseline"
    "current" "limit" "verdict";
  List.iter
    (fun v ->
      Printf.bprintf buf "%-40s %12.3f %12.3f %12.3f  %s\n" v.metric
        v.baseline v.current v.limit
        (if v.regressed then "REGRESSED" else "ok"))
    c.verdicts;
  List.iter
    (fun (name, base, cur) ->
      Printf.bprintf buf "counter %-32s %12g != %12g  MISMATCH\n" name base
        cur)
    c.counter_mismatches;
  if c.missing <> [] then
    Printf.bprintf buf "missing from current: %s\n"
      (String.concat ", " c.missing);
  if c.added <> [] then
    Printf.bprintf buf "new metrics (no baseline): %s\n"
      (String.concat ", " c.added);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The bench driver                                                    *)
(* ------------------------------------------------------------------ *)

(* What one bench run measured.  [counters] are exact-match facts
   computed outside the Obs counter machinery (chosen counts);
   [failure] is the verdict a run can fail, reported only after its
   manifest is written. *)
type outcome = {
  config : (string * string) list;
  metrics : (string * float) list;
  counters : (string * float) list;
  failure : string option;
}

(* The command line every benchmark executable shares:

     NAME [--smoke] [--out FILE] [--check FILE] [--trajectory FILE]

   [--check FILE] strictly decodes FILE as one of this bench's
   manifests and exits; it runs nothing.  Otherwise [run ~smoke] runs
   under a live recorder, and its manifest is written to [--out]
   (default [default_out]), read back through [check_manifest] (a
   malformed manifest is a bench bug and fails the run) and appended
   to the [--trajectory] log.  Only then does a [failure] exit 1, so a
   failing run still leaves its numbers behind. *)
let main ~name ~source ~label ~default_out ~smoke_doc run =
  let smoke = ref false in
  let out = ref default_out in
  let check = ref "" in
  let trajectory = ref "" in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " " ^ smoke_doc);
      ( "--out",
        Arg.Set_string out,
        Printf.sprintf "FILE output path (default %s)" default_out );
      ( "--check",
        Arg.Set_string check,
        "FILE strictly decode FILE as a bench manifest and exit" );
      ( "--trajectory",
        Arg.Set_string trajectory,
        "FILE append a JSONL summary line to FILE" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    (name ^ " [--smoke] [--out FILE] [--check FILE] [--trajectory FILE]");
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        exit 1)
      fmt
  in
  if !check <> "" then
    match check_manifest ~source !check with
    | Ok m ->
      Printf.printf "%s --check: %s ok (%d metrics, digest %s)\n" name !check
        (List.length m.Obs.Manifest.metrics)
        m.Obs.Manifest.config_digest
    | Error msg -> fail "%s --check: %s" name msg
  else begin
    let recorder = Obs.Recorder.create () in
    Obs.install (Obs.Recorder.sink recorder);
    let o = run ~smoke:!smoke in
    let m =
      Obs.Manifest.of_recorder ~source ~label ~config:o.config
        ~metrics:o.metrics recorder
    in
    let m =
      {
        m with
        Obs.Manifest.counters =
          List.sort compare (m.Obs.Manifest.counters @ o.counters);
      }
    in
    Out_channel.with_open_bin !out (fun oc ->
        output_string oc (Obs.Manifest.to_text m));
    (match check_manifest ~source !out with
     | Ok _ -> ()
     | Error msg -> fail "%s: wrote a malformed manifest: %s" name msg);
    if !trajectory <> "" then append_trajectory !trajectory m;
    Printf.eprintf "results written to %s\n" !out;
    Option.iter (fail "%s: %s" name) o.failure
  end
