(* The on-disk run store: one canonical-JSON manifest file per run
   under DIR/runs/, indexed by DIR/index.json.

   Identity is content: a run's hash is the FNV-1a 64 of its manifest
   text, so ingesting the same file twice dedupes while two real runs
   of one config (different timings) accumulate as trajectory points.
   The index carries its own digest over the entry table, and every
   load re-hashes the stored file against the indexed hash — the same
   tamper discipline the manifest applies to its config section. *)

let schema_version = 1
let kind_name = "run-store-index"
let default_dir = Filename.concat ".analyze" "store"

type entry = {
  seq : int;
  config_digest : string;
  source : string;
  label : string;
  created_unix : float;
  manifest_hash : string;
  file : string;
}

type t = {
  root : string;
  mutable next_seq : int;
  mutable all : entry list;  (* ascending by seq *)
}

type outcome = Ingested of entry | Deduped of entry

let dir t = t.root
let entries t = t.all
let index_path root = Filename.concat root "index.json"
let runs_dir root = Filename.concat root "runs"
let run_path root e = Filename.concat (runs_dir root) e.file

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic-enough writes: temp file in the same directory, then rename,
   so a crash mid-write never leaves a half-written index. *)
let write_file_atomic path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

(* The canonical line rendering an entry contributes to the index
   digest — order-sensitive (entries are kept sorted by seq), so a
   reordered or edited table no longer matches.  The fifth slot held a
   storage backend name in indexes written before the storage backends
   were removed; it is empty now, and [legacy] re-supplies a decoded
   row's old value so those indexes still verify. *)
let entry_line ?(legacy = "") e =
  Printf.sprintf "%d|%s|%s|%s|%s|%.17g|%s|%s\n" e.seq e.config_digest e.source
    e.label legacy e.created_unix e.manifest_hash e.file

let lines_digest lines = Manifest.fnv64_hex (String.concat "" lines)
let entries_digest all = lines_digest (List.map (fun e -> entry_line e) all)

(* ------------------------------------------------------------------ *)
(* Index JSON                                                          *)
(* ------------------------------------------------------------------ *)

let entry_to_json e =
  Jsonio.Obj
    [
      ("seq", Jsonio.Num (float_of_int e.seq));
      ("config_digest", Jsonio.Str e.config_digest);
      ("source", Jsonio.Str e.source);
      ("label", Jsonio.Str e.label);
      ("created_unix", Jsonio.Num e.created_unix);
      ("manifest_hash", Jsonio.Str e.manifest_hash);
      ("file", Jsonio.Str e.file);
    ]

let index_to_json t =
  Jsonio.Obj
    [
      ("schema_version", Jsonio.Num (float_of_int schema_version));
      ("kind", Jsonio.Str kind_name);
      ("next_seq", Jsonio.Num (float_of_int t.next_seq));
      ("entries_digest", Jsonio.Str (entries_digest t.all));
      ("entries", Jsonio.List (List.map entry_to_json t.all));
    ]

open Jsonio.Decode

(* A decoded row and its digest line.  Rows written before the storage
   backends were removed carry a "backend" key (a name, or null); it is
   ignored except for re-deriving the row's digest line. *)
let entry_of_json json =
  let ctx = "store entry" in
  let* seq = d_num_int ctx "seq" json in
  let ctx = Printf.sprintf "store entry %d" seq in
  let* config_digest = d_str ctx "config_digest" json in
  let* source = d_str ctx "source" json in
  let* label = d_str ctx "label" json in
  let* created_unix = d_num ctx "created_unix" json in
  let* manifest_hash = d_str ctx "manifest_hash" json in
  let* file = d_str ctx "file" json in
  if Filename.basename file <> file then
    Error (Printf.sprintf "%s: file %S is not a plain name" ctx file)
  else
    let e =
      { seq; config_digest; source; label; created_unix; manifest_hash; file }
    in
    let legacy =
      Option.bind (Jsonio.member "backend" json) Jsonio.to_string_opt
    in
    Ok (e, entry_line ?legacy e)

let index_of_json root json =
  let ctx = kind_name in
  let* version = d_num_int ctx "schema_version" json in
  if version <> schema_version then
    Error
      (Printf.sprintf
         "unsupported store index schema version %d (this build reads \
          version %d)"
         version schema_version)
  else
    let* kind = d_str ctx "kind" json in
    if kind <> kind_name then
      Error (Printf.sprintf "%s: unexpected kind %S" ctx kind)
    else
      let* next_seq = d_num_int ctx "next_seq" json in
      let* digest = d_str ctx "entries_digest" json in
      let* entries_j = d_field ctx "entries" json in
      let* rows =
        match entries_j with
        | Jsonio.List l -> map_result entry_of_json l
        | _ -> Error (ctx ^ ": field \"entries\" is not a list")
      in
      let all = List.map fst rows in
      let recomputed = lines_digest (List.map snd rows) in
      if digest <> recomputed then
        Error
          (Printf.sprintf
             "%s: entries digest mismatch (recorded %s, recomputed %s) — \
              the index was modified after it was written"
             ctx digest recomputed)
      else if List.exists (fun e -> e.seq >= next_seq) all then
        Error (ctx ^ ": an entry's seq is not below next_seq")
      else Ok { root; next_seq; all }

(* ------------------------------------------------------------------ *)
(* Open / persist                                                      *)
(* ------------------------------------------------------------------ *)

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go path

let persist t =
  write_file_atomic (index_path t.root)
    (Jsonio.to_string (index_to_json t) ^ "\n")

let open_store ?(create = false) root =
  let idx = index_path root in
  if Sys.file_exists idx then begin
    match Jsonio.of_string (read_file idx) with
    | Error msg -> Error (Printf.sprintf "%s: not JSON: %s" idx msg)
    | Ok j -> (
      match index_of_json root j with
      | Error msg -> Error (Printf.sprintf "%s: %s" idx msg)
      | Ok t -> Ok t)
  end
  else if create then begin
    try
      mkdir_p (runs_dir root);
      let t = { root; next_seq = 1; all = [] } in
      persist t;
      Ok t
    with Sys_error msg | Unix.Unix_error (_, msg, _) ->
      Error (Printf.sprintf "cannot create store %s: %s" root msg)
  end
  else Error (Printf.sprintf "no run store at %s (no %s)" root idx)

(* ------------------------------------------------------------------ *)
(* Ingest / query / load                                               *)
(* ------------------------------------------------------------------ *)

let manifest_text m = Jsonio.to_string (Manifest.to_json m) ^ "\n"

let ingest t (m : Manifest.t) =
  let text = manifest_text m in
  let hash = Manifest.fnv64_hex text in
  match List.find_opt (fun e -> e.manifest_hash = hash) t.all with
  | Some e -> Ok (Deduped e)
  | None -> (
    let seq = t.next_seq in
    let e =
      {
        seq;
        config_digest = m.Manifest.config_digest;
        source = m.Manifest.source;
        label = m.Manifest.label;
        created_unix = m.Manifest.created_unix;
        manifest_hash = hash;
        file = Printf.sprintf "run-%06d-%s.json" seq m.Manifest.config_digest;
      }
    in
    try
      mkdir_p (runs_dir t.root);
      write_file_atomic (run_path t.root e) text;
      t.next_seq <- seq + 1;
      t.all <- t.all @ [ e ];
      persist t;
      Ok (Ingested e)
    with Sys_error msg | Unix.Unix_error (_, msg, _) ->
      Error (Printf.sprintf "cannot write run to store %s: %s" t.root msg))

let query ?config_digest ?source ?label t =
  let want opt f = match opt with None -> true | Some v -> f = v in
  List.filter
    (fun e ->
      want config_digest e.config_digest
      && want source e.source && want label e.label)
    t.all

let load t e =
  let path = run_path t.root e in
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
    let hash = Manifest.fnv64_hex text in
    if hash <> e.manifest_hash then
      Error
        (Printf.sprintf
           "%s: content hash mismatch (indexed %s, recomputed %s) — the \
            stored run was modified after ingestion"
           path e.manifest_hash hash)
    else (
      match Jsonio.of_string text with
      | Error msg -> Error (Printf.sprintf "%s: not JSON: %s" path msg)
      | Ok j -> (
        match Manifest.of_json j with
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
        | Ok m -> Ok m))

let latest_comparable t (m : Manifest.t) =
  let hash = Manifest.fnv64_hex (manifest_text m) in
  query ~config_digest:m.Manifest.config_digest ~source:m.Manifest.source t
  |> List.filter (fun e -> e.manifest_hash <> hash)
  |> List.fold_left (fun _ e -> Some e) None

let find_seq t seq = List.find_opt (fun e -> e.seq = seq) t.all
