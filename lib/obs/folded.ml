(* Folded-stack accumulation for flamegraph export.

   The sink mirrors the collector's span stack.  When a span ends, its
   self time (duration minus the time spent in child spans) is added
   to the bucket keyed by the ';'-joined stack up to and including
   that span, and its full duration is charged to the parent frame's
   child accumulator.  Self-time bucketing is what makes the folded
   semantics correct: flamegraph.pl widths sum every line a frame
   prefixes, so inclusive counts would double-count children. *)

type frame = {
  name : string;  (* sanitized *)
  mutable child_ns : int64;  (* time spent in already-closed children *)
}

type t = {
  totals : (string, int64 ref) Hashtbl.t;  (* stack -> self ns *)
  mutable stack : frame list;  (* innermost first *)
}

let create () = { totals = Hashtbl.create 64; stack = [] }

(* Folded grammar: frames may not contain the separator characters. *)
let sanitize name =
  String.map (fun c -> if c = ';' || c = ' ' || c = '\n' then '_' else c) name

let stack_key frames =
  String.concat ";" (List.rev_map (fun f -> f.name) frames)

let add t key ns =
  if Int64.compare ns 0L > 0 then begin
    let cell =
      match Hashtbl.find_opt t.totals key with
      | Some c -> c
      | None ->
        let c = ref 0L in
        Hashtbl.add t.totals key c;
        c
    in
    cell := Int64.add !cell ns
  end

let sink t =
  {
    Sink.on_span_start =
      (fun ~id:_ ~parent:_ ~name ~ts_ns:_ ->
        t.stack <- { name = sanitize name; child_ns = 0L } :: t.stack);
    on_span_end =
      (fun ~id:_ ~name:_ ~ts_ns:_ ~dur_ns ~attrs:_ ->
        match t.stack with
        | [] -> ()  (* unbalanced end: ignore, like the other sinks *)
        | frame :: rest ->
          let key = stack_key t.stack in
          let self = Int64.sub dur_ns frame.child_ns in
          add t key (Int64.max 0L self);
          (match rest with
          | parent :: _ -> parent.child_ns <- Int64.add parent.child_ns dur_ns
          | [] -> ());
          t.stack <- rest);
    on_counter = (fun ~name:_ ~delta:_ ~total:_ ~ts_ns:_ -> ());
    on_gauge = (fun ~name:_ ~value:_ ~ts_ns:_ -> ());
  }

let stacks t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.totals []
  |> List.sort compare

let contents t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, ns) -> Printf.bprintf buf "%s %Ld\n" k ns)
    (stacks t);
  Buffer.contents buf

let write_file t path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (contents t))
