let schema_version = 1

type noise_status = Kept | Too_noisy | All_zero

type noise = {
  measure : string;
  variability : float;
  tau : float;
  status : noise_status;
}

type projection = {
  residual : float;
  tol : float;
  accepted : bool;
  representation : float array;
}

type pick = {
  round : int;
  score : float;
  trailing_norm : float;
  candidates : int;
  runner_up : string option;
  runner_up_score : float option;
}

type elimination_reason = Below_beta | Rank_exhausted

type elimination = {
  reason : elimination_reason;
  final_norm : float;
  beta : float;
}

type qrcp = Picked of pick | Dropped of elimination

type entry = {
  event : string;
  description : string;
  noise : noise;
  projection : projection option;
  qrcp : qrcp option;
  memberships : (string * float) list;
}

type t = {
  version : int;
  category : string;
  machine : string;
  tau : float;
  alpha : float;
  projection_tol : float;
  basis_labels : string array;
  entries : entry list;
}

type fate =
  | Discarded_all_zero
  | Discarded_noisy
  | Unrepresentable
  | Eliminated of elimination_reason
  | Chosen

let fate_name = function
  | Discarded_all_zero -> "all-zero"
  | Discarded_noisy -> "noisy"
  | Unrepresentable -> "unrepresentable"
  | Eliminated Below_beta -> "eliminated-below-beta"
  | Eliminated Rank_exhausted -> "eliminated-rank-exhausted"
  | Chosen -> "chosen"

let fate_of_name = function
  | "all-zero" -> Some Discarded_all_zero
  | "noisy" -> Some Discarded_noisy
  | "unrepresentable" -> Some Unrepresentable
  | "eliminated-below-beta" -> Some (Eliminated Below_beta)
  | "eliminated-rank-exhausted" -> Some (Eliminated Rank_exhausted)
  | "chosen" -> Some Chosen
  | _ -> None

(* The exactly-one-terminal-fate rule: each stage verdict forecloses
   the later stages or hands the event on, so the fate is read off the
   deepest stage the event reached. *)
let fate_checked (e : entry) =
  match (e.noise.status, e.projection, e.qrcp) with
  | All_zero, None, None -> Ok Discarded_all_zero
  | Too_noisy, None, None -> Ok Discarded_noisy
  | Kept, Some p, None when not p.accepted -> Ok Unrepresentable
  | Kept, Some p, Some (Dropped d) when p.accepted -> Ok (Eliminated d.reason)
  | Kept, Some p, Some (Picked _) when p.accepted -> Ok Chosen
  | Kept, None, _ ->
    Error (Printf.sprintf "%s: kept by the noise filter but never projected" e.event)
  | Kept, Some _, Some _ ->
    (* p not accepted here: the accepted cases matched above. *)
    Error (Printf.sprintf "%s: rejected at projection yet has a QRCP verdict" e.event)
  | Kept, Some _, None ->
    Error (Printf.sprintf "%s: accepted at projection but never reached the QRCP" e.event)
  | (All_zero | Too_noisy), Some _, _ ->
    Error (Printf.sprintf "%s: discarded by the noise filter yet projected" e.event)
  | (All_zero | Too_noisy), None, Some _ ->
    Error (Printf.sprintf "%s: discarded by the noise filter yet has a QRCP verdict" e.event)

let fate e =
  match fate_checked e with
  | Ok f -> f
  | Error msg -> invalid_arg ("Ledger.fate: " ^ msg)

let find t name = List.find_opt (fun e -> e.event = name) t.entries

let with_fate t f = List.filter (fun e -> fate e = f) t.entries

let chosen_in_order t =
  List.filter_map
    (fun e -> match e.qrcp with Some (Picked p) -> Some (e, p) | _ -> None)
    t.entries
  |> List.sort (fun (_, a) (_, b) -> compare a.round b.round)

(* ------------------------------------------------------------------ *)
(* Totals                                                              *)
(* ------------------------------------------------------------------ *)

type totals = {
  events : int;
  all_zero : int;
  noisy : int;
  kept : int;
  accepted : int;
  unrepresentable : int;
  eliminated : int;
  chosen : int;
}

let totals t =
  List.fold_left
    (fun acc e ->
      let acc = { acc with events = acc.events + 1 } in
      match fate e with
      | Discarded_all_zero -> { acc with all_zero = acc.all_zero + 1 }
      | Discarded_noisy -> { acc with noisy = acc.noisy + 1 }
      | Unrepresentable ->
        { acc with kept = acc.kept + 1;
                   unrepresentable = acc.unrepresentable + 1 }
      | Eliminated _ ->
        { acc with kept = acc.kept + 1; accepted = acc.accepted + 1;
                   eliminated = acc.eliminated + 1 }
      | Chosen ->
        { acc with kept = acc.kept + 1; accepted = acc.accepted + 1;
                   chosen = acc.chosen + 1 })
    { events = 0; all_zero = 0; noisy = 0; kept = 0; accepted = 0;
      unrepresentable = 0; eliminated = 0; chosen = 0 }
    t.entries

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate t =
  if t.version <> schema_version then
    Error (Printf.sprintf "schema version %d (this build reads %d)"
             t.version schema_version)
  else begin
    let seen = Hashtbl.create 64 in
    let rec go rounds = function
      | [] ->
        (* Pick rounds must be exactly 1..k, each used once. *)
        let rounds = List.sort compare rounds in
        let ok = List.for_all2 ( = ) rounds (List.init (List.length rounds) succ) in
        if ok then Ok () else Error "QRCP pick rounds are not exactly 1..rank"
      | e :: rest -> (
        if Hashtbl.mem seen e.event then
          Error (Printf.sprintf "duplicate entry for event %s" e.event)
        else begin
          Hashtbl.add seen e.event ();
          match fate_checked e with
          | Error msg -> Error msg
          | Ok f ->
            let members_ok =
              match f with
              | Chosen -> true
              | _ -> e.memberships = []
            in
            if not members_ok then
              Error
                (Printf.sprintf "%s: metric memberships on a non-chosen event"
                   e.event)
            else
              go
                (match e.qrcp with
                 | Some (Picked p) -> p.round :: rounds
                 | _ -> rounds)
                rest
        end)
    in
    go [] t.entries
  end

(* NaN-tolerant structural equality ([compare] orders NaN = NaN,
   which polymorphic [=] on floats does not), for round-trip tests. *)
let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* Non-finite evidence values (a NaN variability from a corrupt import
   is itself evidence) use Jsonio's shared tagged-string encoding so
   the export round-trips losslessly. *)
let fnum = Jsonio.fnum

let status_name = function
  | Kept -> "kept"
  | Too_noisy -> "too-noisy"
  | All_zero -> "all-zero"

let reason_name = function
  | Below_beta -> "below-beta"
  | Rank_exhausted -> "rank-exhausted"

let opt_str = function Some s -> Jsonio.Str s | None -> Jsonio.Null

let entry_json e =
  let noise =
    Jsonio.Obj
      [
        ("measure", Jsonio.Str e.noise.measure);
        ("variability", fnum e.noise.variability);
        ("tau", fnum e.noise.tau);
        ("status", Jsonio.Str (status_name e.noise.status));
      ]
  in
  let projection =
    match e.projection with
    | None -> Jsonio.Null
    | Some p ->
      Jsonio.Obj
        [
          ("residual", fnum p.residual);
          ("tol", fnum p.tol);
          ("accepted", Jsonio.Bool p.accepted);
          ( "representation",
            Jsonio.List (Array.to_list (Array.map fnum p.representation)) );
        ]
  in
  let qrcp =
    match e.qrcp with
    | None -> Jsonio.Null
    | Some (Picked p) ->
      Jsonio.Obj
        [
          ("outcome", Jsonio.Str "picked");
          ("round", Jsonio.Num (float_of_int p.round));
          ("score", fnum p.score);
          ("trailing_norm", fnum p.trailing_norm);
          ("candidates", Jsonio.Num (float_of_int p.candidates));
          ("runner_up", opt_str p.runner_up);
          ( "runner_up_score",
            match p.runner_up_score with None -> Jsonio.Null | Some s -> fnum s
          );
        ]
    | Some (Dropped d) ->
      Jsonio.Obj
        [
          ("outcome", Jsonio.Str "eliminated");
          ("reason", Jsonio.Str (reason_name d.reason));
          ("final_norm", fnum d.final_norm);
          ("beta", fnum d.beta);
        ]
  in
  Jsonio.Obj
    [
      ("event", Jsonio.Str e.event);
      ("description", Jsonio.Str e.description);
      ("fate", Jsonio.Str (fate_name (fate e)));
      ("noise", noise);
      ("projection", projection);
      ("qrcp", qrcp);
      ( "metrics",
        Jsonio.List
          (List.map
             (fun (m, c) ->
               Jsonio.Obj [ ("metric", Jsonio.Str m); ("coefficient", fnum c) ])
             e.memberships) );
    ]

let to_json t =
  Jsonio.Obj
    [
      ("schema_version", Jsonio.Num (float_of_int t.version));
      ("category", Jsonio.Str t.category);
      ("machine", Jsonio.Str t.machine);
      ( "thresholds",
        Jsonio.Obj
          [ ("tau", fnum t.tau); ("alpha", fnum t.alpha);
            ("projection_tol", fnum t.projection_tol) ] );
      ( "basis",
        Jsonio.List
          (Array.to_list (Array.map (fun l -> Jsonio.Str l) t.basis_labels)) );
      ("events", Jsonio.List (List.map entry_json t.entries));
    ]

(* Decoding: strict — a missing or mistyped field is an error naming
   the field, so exports from incompatible builds fail loudly. *)

open Jsonio.Decode

let noise_of_json ctx json =
  let* measure = d_str ctx "measure" json in
  let* variability = d_float ctx "variability" json in
  let* tau = d_float ctx "tau" json in
  let* status_s = d_str ctx "status" json in
  let* status =
    match status_s with
    | "kept" -> Ok Kept
    | "too-noisy" -> Ok Too_noisy
    | "all-zero" -> Ok All_zero
    | s -> Error (Printf.sprintf "%s: unknown noise status %S" ctx s)
  in
  Ok { measure; variability; tau; status }

let projection_of_json ctx json =
  let* residual = d_float ctx "residual" json in
  let* tol = d_float ctx "tol" json in
  let* accepted = d_bool ctx "accepted" json in
  let* repr = d_list ctx "representation" json in
  let* coords =
    map_result
      (fun v ->
        match Jsonio.fnum_opt v with
        | Some f -> Ok f
        | None -> Error (ctx ^ ": representation entry is not a number"))
      repr
  in
  Ok { residual; tol; accepted; representation = Array.of_list coords }

let qrcp_of_json ctx json =
  let* outcome = d_str ctx "outcome" json in
  match outcome with
  | "picked" ->
    let* round = d_int ctx "round" json in
    let* score = d_float ctx "score" json in
    let* trailing_norm = d_float ctx "trailing_norm" json in
    let* candidates = d_int ctx "candidates" json in
    let* runner_up =
      match Jsonio.member "runner_up" json with
      | Some Jsonio.Null -> Ok None
      | Some (Jsonio.Str s) -> Ok (Some s)
      | _ -> Error (ctx ^ ": bad runner_up")
    in
    let* runner_up_score =
      match Jsonio.member "runner_up_score" json with
      | Some Jsonio.Null -> Ok None
      | Some v -> (
        match Jsonio.fnum_opt v with
        | Some f -> Ok (Some f)
        | None -> Error (ctx ^ ": bad runner_up_score"))
      | None -> Error (ctx ^ ": bad runner_up_score")
    in
    Ok (Picked { round; score; trailing_norm; candidates; runner_up; runner_up_score })
  | "eliminated" ->
    let* reason_s = d_str ctx "reason" json in
    let* reason =
      match reason_s with
      | "below-beta" -> Ok Below_beta
      | "rank-exhausted" -> Ok Rank_exhausted
      | s -> Error (Printf.sprintf "%s: unknown elimination reason %S" ctx s)
    in
    let* final_norm = d_float ctx "final_norm" json in
    let* beta = d_float ctx "beta" json in
    Ok (Dropped { reason; final_norm; beta })
  | s -> Error (Printf.sprintf "%s: unknown qrcp outcome %S" ctx s)

let entry_of_json json =
  let* event = d_str "event" "event" json in
  let ctx = "event " ^ event in
  let* description = d_str ctx "description" json in
  let* noise_j = d_field ctx "noise" json in
  let* noise = noise_of_json ctx noise_j in
  let* projection =
    match Jsonio.member "projection" json with
    | Some Jsonio.Null -> Ok None
    | Some p ->
      let* p = projection_of_json ctx p in
      Ok (Some p)
    | None -> Error (ctx ^ ": missing field \"projection\"")
  in
  let* qrcp =
    match Jsonio.member "qrcp" json with
    | Some Jsonio.Null -> Ok None
    | Some q ->
      let* q = qrcp_of_json ctx q in
      Ok (Some q)
    | None -> Error (ctx ^ ": missing field \"qrcp\"")
  in
  let* metrics = d_list ctx "metrics" json in
  let* memberships =
    map_result
      (fun m ->
        let* metric = d_str ctx "metric" m in
        let* coef = d_float ctx "coefficient" m in
        Ok (metric, coef))
      metrics
  in
  let e = { event; description; noise; projection; qrcp; memberships } in
  (* The stored fate is redundant; a mismatch means the document was
     edited or produced by drifted code, so reject it. *)
  let* stored_fate = d_str ctx "fate" json in
  let* computed = fate_checked e in
  if stored_fate <> fate_name computed then
    Error
      (Printf.sprintf "%s: stored fate %S contradicts the evidence (%s)" ctx
         stored_fate (fate_name computed))
  else Ok e

let of_json json =
  let ctx = "ledger" in
  let* version = d_int ctx "schema_version" json in
  if version <> schema_version then
    Error
      (Printf.sprintf
         "unsupported schema version %d (this build reads version %d)" version
         schema_version)
  else
    let* category = d_str ctx "category" json in
    let* machine = d_str ctx "machine" json in
    let* thresholds = d_field ctx "thresholds" json in
    let* tau = d_float ctx "tau" thresholds in
    let* alpha = d_float ctx "alpha" thresholds in
    let* projection_tol = d_float ctx "projection_tol" thresholds in
    let* basis = d_list ctx "basis" json in
    let* labels =
      map_result
        (fun v ->
          match Jsonio.to_string_opt v with
          | Some s -> Ok s
          | None -> Error (ctx ^ ": basis label is not a string"))
        basis
    in
    let* events = d_list ctx "events" json in
    let* entries = map_result entry_of_json events in
    let t =
      { version; category; machine; tau; alpha; projection_tol;
        basis_labels = Array.of_list labels; entries }
    in
    let* () = validate t in
    Ok t

(* ------------------------------------------------------------------ *)
(* Human-readable decision chain                                       *)
(* ------------------------------------------------------------------ *)

let format_representation labels repr =
  let terms = ref [] in
  Array.iteri
    (fun i c ->
      if Float.abs c > 1e-9 then begin
        let label = if i < Array.length labels then labels.(i) else Printf.sprintf "e%d" i in
        terms := Printf.sprintf "%g x %s" c label :: !terms
      end)
    repr;
  match List.rev !terms with
  | [] -> "~0 (no significant component)"
  | terms -> String.concat " + " terms

let chain t (e : entry) =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let index =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x.event = e.event then i else go (i + 1) rest
    in
    go 0 t.entries
  in
  pr "%s (%s on %s)\n" e.event t.category t.machine;
  if e.description <> "" then pr "  what it counts: %s\n" e.description;
  if index >= 0 then
    pr "  catalog: event %d of %d\n" (index + 1) (List.length t.entries);
  (match e.noise.status with
  | All_zero ->
    pr "  noise filter: discarded - every repetition read zero (the event \
        never fires in this benchmark, irrelevant by construction)\n"
  | Too_noisy ->
    pr "  noise filter: discarded - %s %.3g exceeds tau %.3g (excess %.3g)\n"
      e.noise.measure e.noise.variability e.noise.tau
      (e.noise.variability -. e.noise.tau)
  | Kept ->
    pr "  noise filter: kept - %s %.3g within tau %.3g (margin %.3g)\n"
      e.noise.measure e.noise.variability e.noise.tau
      (e.noise.tau -. e.noise.variability));
  (match e.projection with
  | None ->
    pr "  projection: not reached (discarded by the noise filter)\n"
  | Some p when p.accepted ->
    pr "  projection: accepted - relative residual %.3g within tol %.3g\n"
      p.residual p.tol;
    pr "    representation: %s\n" (format_representation t.basis_labels p.representation)
  | Some p ->
    pr "  projection: rejected - relative residual %.3g exceeds tol %.3g \
        (measures something outside the expectation basis)\n"
      p.residual p.tol);
  (match e.qrcp with
  | None when e.noise.status <> Kept ->
    pr "  qrcp: not reached (discarded by the noise filter)\n"
  | None ->
    pr "  qrcp: not reached (rejected at projection)\n"
  | Some (Picked p) ->
    pr "  qrcp: chosen in round %d - score %.3g, trailing norm %.3g, %d \
        candidate%s that round%s\n"
      p.round p.score p.trailing_norm p.candidates
      (if p.candidates = 1 then "" else "s")
      (match (p.runner_up, p.runner_up_score) with
      | Some r, Some s ->
        Printf.sprintf "; runner-up %s (score %.3g, gap %.3g)" r s (s -. p.score)
      | Some r, None -> Printf.sprintf "; runner-up %s" r
      | None, _ -> "; no runner-up")
  | Some (Dropped d) -> (
    match d.reason with
    | Below_beta ->
      pr "  qrcp: eliminated - trailing norm %.3g fell below beta %.3g (the \
          event is numerically in the span of the chosen set)\n"
        d.final_norm d.beta
    | Rank_exhausted ->
      pr "  qrcp: eliminated - the factorization reached full rank before \
          this column (final trailing norm %.3g, beta %.3g)\n"
        d.final_norm d.beta));
  (match fate_checked e with
  | Ok Chosen ->
    (match e.memberships with
    | [] -> pr "  metrics: none defined for this category\n"
    | ms ->
      pr "  metrics:\n";
      List.iter
        (fun (m, c) ->
          if Float.abs c > 1e-9 then pr "    %s: coefficient %.6g\n" m c
          else pr "    %s: coefficient ~0 (unused)\n" m)
        ms)
  | Ok _ -> pr "  metrics: none (event not chosen)\n"
  | Error msg -> pr "  metrics: inconsistent record (%s)\n" msg);
  (match fate_checked e with
  | Ok f -> pr "  fate: %s\n" (fate_name f)
  | Error _ -> pr "  fate: inconsistent (unknown stage)\n");
  Buffer.contents buf
