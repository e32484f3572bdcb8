(* GC and allocation sampling (no heap walk, no collection).  A
   sample is either an absolute snapshot or a delta between two
   snapshots; deltas accumulate per stage in the recorder so a run
   manifest can attribute allocation (minor/major words) and
   compactions to the stage that caused them.  Minor words are exact;
   [quick_stat]'s advance only at collections. *)

type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (* absolute at sample time *)
  top_heap_words : int;  (* process-wide peak at sample time *)
}

let zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    heap_words = 0;
    top_heap_words = 0;
  }

let take () =
  let s = Gc.quick_stat () in
  (* Read last: the stat record above is counted before this sample. *)
  let minor_words = Gc.minor_words () in
  {
    minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
  }

(* Counters subtract; heap levels keep the [after] reading (a delta's
   heap fields answer "where did this stage leave the heap"). *)
let delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    heap_words = after.heap_words;
    top_heap_words = after.top_heap_words;
  }

(* Counters add; heap levels take the peak. *)
let add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    compactions = a.compactions + b.compactions;
    heap_words = max a.heap_words b.heap_words;
    top_heap_words = max a.top_heap_words b.top_heap_words;
  }
