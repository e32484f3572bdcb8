(** On-disk, content-addressed run store.

    A store is a directory ([.analyze/store] by default) holding one
    JSON manifest file per ingested run under [runs/], plus a strict,
    schema-versioned [index.json] keyed by [(config_digest, seq)]
    where [seq] is a store-wide monotonic run sequence.  Ingestion is
    content-addressed: the FNV-1a hash of the manifest's canonical
    JSON is the run's identity, so re-ingesting the same manifest is a
    dedupe, not a new run — while two real runs of the same config
    (different timings, different timestamps) append as distinct
    trajectory points.

    Tamper evidence mirrors the manifest's own config digest: the
    index records each run's content hash (verified on {!load}) and an
    entries digest over the whole table (verified on {!open_store}),
    so editing a stored manifest or the index by hand is rejected with
    an error naming the file. *)

val default_dir : string
(** [".analyze/store"]. *)

type entry = {
  seq : int;  (** Monotonic, store-wide, 1-based. *)
  config_digest : string;
  source : string;  (** Manifest source ("pipeline", "bench:*", ...). *)
  label : string;  (** Category or bench label. *)
  created_unix : float;
  manifest_hash : string;  (** FNV-1a 64 of the stored JSON text. *)
  file : string;  (** File name under [runs/]. *)
}

type t

type outcome =
  | Ingested of entry  (** A new trajectory point. *)
  | Deduped of entry  (** Identical content already stored (the
                          returned entry is the existing one). *)

val open_store : ?create:bool -> string -> (t, string) result
(** Open (and with [create], initialize) a store directory.  A
    missing store with [create:false], a malformed index, a foreign
    schema version and an entries-digest mismatch are all errors
    naming the problem. *)

val dir : t -> string

val entries : t -> entry list
(** All runs, ascending by [seq]. *)

val ingest : t -> Manifest.t -> (outcome, string) result
(** Add one manifest: serialize canonically, hash, dedupe against the
    index, else write [runs/<file>] and rewrite the index atomically
    (temp file + rename). *)

val query :
  ?config_digest:string ->
  ?source:string ->
  ?label:string ->
  t ->
  entry list
(** Entries matching every given filter, ascending by [seq]. *)

val load : t -> entry -> (Manifest.t, string) result
(** Read a stored run back through the strict manifest decoder,
    verifying the indexed content hash first — a stored file that was
    edited after ingestion is rejected. *)

val latest_comparable : t -> Manifest.t -> entry option
(** The newest stored run with the same config digest and source as
    [m] but different content — the automatic baseline for
    [analyze report --baseline store] (a just-ingested copy of [m]
    itself never shadows the previous run). *)

val find_seq : t -> int -> entry option
