(* Executor: sequential reference + persistent domain pool.

   The pool is deliberately simple: one mutex, two condition
   variables, task distribution by shared-counter grab.  A batch is
   published by bumping [generation]; workers that see a fresh
   generation pull task indices until the counter is exhausted.  The
   submitting domain participates in its own batch, then blocks until
   [pending] reaches zero.  A second domain that submits meanwhile
   waits until that batch has drained ([busy]), so at most one batch
   is in flight and the pool state can be reused without further
   synchronization.

   Exceptions raised by tasks are recorded (first one wins), the rest
   of the batch still drains, and the exception is re-raised on the
   submitting domain with its original backtrace. *)

type t = Seq | Domains of int

let of_jobs n = if n <= 1 then Seq else Domains n
let jobs = function Seq -> 1 | Domains n -> n

let worker_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_flag

type pool = {
  mutex : Mutex.t;
  work : Condition.t;  (* workers: a new batch (or stop) is available *)
  drained : Condition.t;  (* submitters: batch drained, or pool freed *)
  mutable generation : int;
  mutable busy : bool;  (* a batch is in flight *)
  mutable body : int -> unit;
  mutable next : int;  (* next task index to grab *)
  mutable total : int;
  mutable pending : int;  (* tasks not yet completed *)
  mutable width : int;  (* workers allowed to join the current batch *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Created on first use; two domains that race to create it keep the
   one that was published first. *)
let pool_ref : pool option Atomic.t = Atomic.make None

(* Grab-and-run loop shared by workers and the submitting domain.
   Called and returns with [p.mutex] held. *)
let drain_tasks p =
  while p.next < p.total do
    let i = p.next in
    p.next <- i + 1;
    Mutex.unlock p.mutex;
    let fail =
      try
        p.body i;
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock p.mutex;
    (match fail with
    | Some f when p.failure = None -> p.failure <- Some f
    | _ -> ());
    p.pending <- p.pending - 1;
    if p.pending = 0 then Condition.broadcast p.drained
  done

let worker_main p k =
  Domain.DLS.set worker_flag true;
  let last_gen = ref 0 in
  Mutex.lock p.mutex;
  let rec loop () =
    if p.stop then Mutex.unlock p.mutex
    else if p.generation <> !last_gen && k < p.width then begin
      last_gen := p.generation;
      drain_tasks p;
      loop ()
    end
    else begin
      Condition.wait p.work p.mutex;
      loop ()
    end
  in
  loop ()

let shutdown () =
  match Atomic.get pool_ref with
  | None -> ()
  | Some p ->
    Mutex.lock p.mutex;
    p.stop <- true;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.workers;
    Atomic.set pool_ref None

let rec get_pool () =
  match Atomic.get pool_ref with
  | Some p -> p
  | None ->
    let p =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        drained = Condition.create ();
        generation = 0;
        busy = false;
        body = ignore;
        next = 0;
        total = 0;
        pending = 0;
        width = 0;
        failure = None;
        stop = false;
        workers = [];
      }
    in
    if Atomic.compare_and_set pool_ref None (Some p) then begin
      at_exit shutdown;
      p
    end
    else get_pool ()

let ensure_workers p count =
  let have = List.length p.workers in
  for k = have to count - 1 do
    p.workers <- Domain.spawn (fun () -> worker_main p k) :: p.workers
  done

(* Run [body 0 .. body (n-1)] on the pool with [extra] worker domains
   plus the calling domain.  Waits for any other submitter's batch to
   drain first, then blocks until this one drains. *)
let run_batch ~extra n body =
  let p = get_pool () in
  Mutex.lock p.mutex;
  while p.busy do
    Condition.wait p.drained p.mutex
  done;
  p.busy <- true;
  ensure_workers p extra;
  p.generation <- p.generation + 1;
  p.body <- body;
  p.next <- 0;
  p.total <- n;
  p.pending <- n;
  p.width <- extra;
  p.failure <- None;
  Condition.broadcast p.work;
  (* The submitting domain participates in its own batch; while it
     does, it counts as a worker so a task that re-enters [map] on
     this domain degrades to sequential instead of corrupting the
     in-flight batch. *)
  let was_worker = Domain.DLS.get worker_flag in
  Domain.DLS.set worker_flag true;
  drain_tasks p;
  Domain.DLS.set worker_flag was_worker;
  while p.pending > 0 do
    Condition.wait p.drained p.mutex
  done;
  let failure = p.failure in
  p.body <- ignore;
  p.failure <- None;
  p.busy <- false;
  Condition.broadcast p.drained;
  Mutex.unlock p.mutex;
  match failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map ?(executor = Seq) n f =
  match executor with
  | Seq -> Array.init n f
  | Domains j when j <= 1 || n <= 1 || in_worker () -> Array.init n f
  | Domains j ->
    let slots = Array.make n None in
    let run i = slots.(i) <- Some (f i) in
    let extra = min (j - 1) (n - 1) in
    if Obs.enabled () then begin
      (* Each task records into its own capture, replayed here in task
         order: this domain's sinks see the stream [Seq] gives. *)
      let caps = Array.init n (fun _ -> Obs.capture ()) in
      run_batch ~extra n (fun i -> Obs.with_capture caps.(i) (fun () -> run i));
      Array.iter Obs.replay caps
    end
    else run_batch ~extra n run;
    Array.map
      (function Some v -> v | None -> invalid_arg "Executor.map: lost slot")
      slots
