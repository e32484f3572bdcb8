(* Executor: sequential reference + domains spawned and joined per
   batch.  A [Domains] batch's domains and the calling domain take task
   indices from one atomic counter; batches share no state.  The first
   failure by completion (a task's exception or a failed spawn) is
   re-raised with its backtrace once the batch has drained. *)

type t = Seq | Domains of int

let of_jobs n = if n <= 1 then Seq else Domains n
let jobs = function Seq -> 1 | Domains n -> n

(* Set while a domain runs batch tasks: a [map] inside a task runs
   sequentially. *)
let worker_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* [body 0 .. body (n-1)] on [extra] spawned domains and this one. *)
let run_batch ~extra n body =
  let next = Atomic.make 0 and failure = Atomic.make None in
  let fail e =
    let f = Some (e, Printexc.get_raw_backtrace ()) in
    ignore (Atomic.compare_and_set failure None f)
  in
  let drain () =
    let was_worker = Domain.DLS.get worker_flag in
    Domain.DLS.set worker_flag true;
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try body i with e -> fail e);
        loop ()
      end
    in
    loop ();
    Domain.DLS.set worker_flag was_worker
  in
  let domains = ref [] in
  (try
     for _ = 1 to extra do
       domains := Domain.spawn drain :: !domains
     done
   with e -> fail e);
  drain ();
  List.iter Domain.join !domains;
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Atomic.get failure)

let map ?(executor = Seq) n f =
  match executor with
  | Seq -> Array.init n f
  | Domains j when j <= 1 || n <= 1 || Domain.DLS.get worker_flag ->
    Array.init n f
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
