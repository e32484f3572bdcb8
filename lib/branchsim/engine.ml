type slot =
  | Cond of { pattern : Pattern.t; shadow : int }
  | Uncond
  | If_taken of { guard : Pattern.t; shadow : int; body : slot list }

type counters = {
  iterations : int;
  cond_executed : float;
  cond_retired : float;
  taken : float;
  uncond : float;
  mispredicted : float;
}

type acc = {
  mutable ce : int;
  mutable cr : int;
  mutable t : int;
  mutable d : int;
  mutable m : int;
}

(* Occurrence indices must advance during warmup too, so guarded
   branches see a contiguous slice of their pattern; each static
   branch keeps its own occurrence counter. *)
type branch_state = { id : int; mutable occurrence : int }

type prepared =
  | P_cond of Pattern.t * int * branch_state
  | P_uncond
  | P_if of Pattern.t * int * branch_state * prepared list

let rec assign_ids next = function
  | [] -> []
  | Cond { pattern; shadow } :: rest ->
    let st = { id = !next; occurrence = 0 } in
    incr next;
    P_cond (pattern, shadow, st) :: assign_ids next rest
  | Uncond :: rest -> P_uncond :: assign_ids next rest
  | If_taken { guard; shadow; body } :: rest ->
    let st = { id = !next; occurrence = 0 } in
    incr next;
    let body' = assign_ids next body in
    P_if (guard, shadow, st, body') :: assign_ids next rest

let exec_cond acc pred counted st pattern shadow =
  let outcome = Pattern.outcome pattern st.occurrence in
  st.occurrence <- st.occurrence + 1;
  let predicted = Predictor.predict pred ~branch:st.id in
  Predictor.update pred ~branch:st.id ~taken:outcome;
  if counted then begin
    acc.ce <- acc.ce + 1;
    acc.cr <- acc.cr + 1;
    if outcome then acc.t <- acc.t + 1;
    if predicted <> outcome then begin
      acc.m <- acc.m + 1;
      (* Wrong-path conditional branches: executed, then squashed. *)
      acc.ce <- acc.ce + shadow
    end
  end;
  outcome

let rec exec_slots acc pred counted slots =
  List.iter
    (fun slot ->
      match slot with
      | P_cond (pattern, shadow, st) ->
        ignore (exec_cond acc pred counted st pattern shadow)
      | P_uncond -> if counted then acc.d <- acc.d + 1
      | P_if (guard, shadow, st, body) ->
        let taken = exec_cond acc pred counted st guard shadow in
        if taken then exec_slots acc pred counted body)
    slots

let run ?(warmup = 64) ?predictor ~slots ~iterations () =
  if iterations <= 0 then invalid_arg "Engine.run: iterations <= 0";
  let pred = match predictor with Some p -> p | None -> Predictor.default () in
  let next = ref 0 in
  let prepared = assign_ids next slots in
  let acc = { ce = 0; cr = 0; t = 0; d = 0; m = 0 } in
  for _ = 1 to warmup do
    exec_slots acc pred false prepared
  done;
  for _ = 1 to iterations do
    exec_slots acc pred true prepared
  done;
  {
    iterations;
    cond_executed = float_of_int acc.ce;
    cond_retired = float_of_int acc.cr;
    taken = float_of_int acc.t;
    uncond = float_of_int acc.d;
    mispredicted = float_of_int acc.m;
  }
