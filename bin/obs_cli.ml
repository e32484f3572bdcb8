(* Shared run-manifest and run-store plumbing for the bin/ front
   ends.  Every command that can emit a manifest (--manifest FILE)
   and/or ingest into the on-disk run store (--store DIR) builds its
   emitter with [emitter] and passes it to the pipeline, so the file
   naming, store ingestion and messages are identical across analyze,
   ablations and reproduce. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file ~what path text =
  if path = "-" then print_string text
  else begin
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text);
    Printf.eprintf "%s written to %s\n" what path
  end

let open_store_or_fail ~command ?(create = true) dir =
  match Obs.Store.open_store ~create dir with
  | Ok store -> store
  | Error msg ->
    Printf.eprintf "%s: %s\n" command msg;
    exit 1

let describe_outcome = function
  | Obs.Store.Ingested e ->
    Printf.sprintf "stored run %d (%s/%s, config %s)" e.Obs.Store.seq
      e.Obs.Store.source e.Obs.Store.label e.Obs.Store.config_digest
  | Obs.Store.Deduped e ->
    Printf.sprintf "identical run already stored (seq %d)" e.Obs.Store.seq

let ingest_or_fail ~command store m =
  match Obs.Store.ingest store m with
  | Ok outcome ->
    Printf.eprintf "%s: %s in %s\n" command (describe_outcome outcome)
      (Obs.Store.dir store);
    outcome
  | Error msg ->
    Printf.eprintf "%s: %s\n" command msg;
    exit 1

(* File naming when one invocation emits several manifests (an
   all-category sweep, an ablation grid): the first goes to FILE, the
   k-th thereafter to FILE.k, so nothing is silently overwritten. *)
let numbered path k = if k = 0 then path else Printf.sprintf "%s.%d" path k

(* The manifest emitter to pass to the pipeline drivers, or [None]
   when neither --manifest nor --store was given.  The store is
   opened here, before any run. *)
let emitter ~command ?manifest ?store () =
  if manifest = None && store = None then None
  else begin
    let store = Option.map (open_store_or_fail ~command) store in
    let emitted = ref 0 in
    Some
      (fun m ->
        let k = !emitted in
        incr emitted;
        Option.iter
          (fun path ->
            write_file
              ~what:(Printf.sprintf "run manifest (%s)" command)
              (numbered path k)
              (Jsonio.to_string (Obs.Manifest.to_json m) ^ "\n"))
          manifest;
        Option.iter (fun s -> ignore (ingest_or_fail ~command s m)) store)
  end

let load_manifest ~command path =
  let fail : 'a. string -> 'a =
   fun msg ->
    Printf.eprintf "%s: %s: %s\n" command path msg;
    exit 1
  in
  let text = try read_file path with Sys_error msg -> fail msg in
  match Jsonio.of_string text with
  | Error msg -> fail ("not JSON: " ^ msg)
  | Ok j -> (
    match Obs.Manifest.of_json j with Error msg -> fail msg | Ok m -> m)
