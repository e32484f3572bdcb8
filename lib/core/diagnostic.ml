(* The shared diagnostics vocabulary of the static pre-flight
   analyzer (lib/check) and the result-validation checks.  A
   diagnostic is a typed value — rule id, severity, location, human
   message, machine payload — so every producer renders and
   serializes identically and `analyze lint` can filter and gate on
   severity without string matching. *)

type severity = Error | Warn | Info

let severity_name = function Error -> "error" | Warn -> "warn" | Info -> "info"

let severity_of_name = function
  | "error" -> Some Error
  | "warn" -> Some Warn
  | "info" -> Some Info
  | _ -> None

let severity_rank = function Error -> 2 | Warn -> 1 | Info -> 0

let severity_at_least ~min s = severity_rank s >= severity_rank min

type t = {
  rule : string;
  severity : severity;
  category : string option;
  subject : string;
  message : string;
  data : (string * Jsonio.t) list;
}

let make ?category ?(data = []) ~rule ~severity ~subject message =
  { rule; severity; category; subject; message; data }

let is_error d = d.severity = Error

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let errors ds = List.filter is_error ds

let filter_min ~min ds =
  List.filter (fun d -> severity_at_least ~min d.severity) ds

let render d =
  Printf.sprintf "%-5s %-26s %s%s: %s"
    (severity_name d.severity)
    d.rule
    (match d.category with Some c -> "[" ^ c ^ "] " | None -> "")
    d.subject d.message

let summary_line ds =
  Printf.sprintf "%d error(s), %d warning(s), %d info" (count Error ds)
    (count Warn ds) (count Info ds)

(* ------------------------------------------------------------------ *)
(* JSON (schema shared with the lint report wrapper in lib/check)     *)
(* ------------------------------------------------------------------ *)

let to_json d =
  Jsonio.Obj
    [
      ("rule", Jsonio.Str d.rule);
      ("severity", Jsonio.Str (severity_name d.severity));
      ( "category",
        match d.category with Some c -> Jsonio.Str c | None -> Jsonio.Null );
      ("subject", Jsonio.Str d.subject);
      ("message", Jsonio.Str d.message);
      ("data", Jsonio.Obj d.data);
    ]

open Jsonio.Decode

let of_json json =
  let ctx = "diagnostic" in
  let* rule = d_str ctx "rule" json in
  let* sev_s = d_str ctx "severity" json in
  let* severity =
    match severity_of_name sev_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: unknown severity %S" ctx sev_s)
  in
  let* category =
    match Jsonio.member "category" json with
    | Some Jsonio.Null | None -> Ok None
    | Some (Jsonio.Str c) -> Ok (Some c)
    | Some _ -> Error (ctx ^ ": field \"category\" is not a string or null")
  in
  let* subject = d_str ctx "subject" json in
  let* message = d_str ctx "message" json in
  let* data =
    match Jsonio.member "data" json with
    | Some (Jsonio.Obj fields) -> Ok fields
    | Some _ -> Error (ctx ^ ": field \"data\" is not an object")
    | None -> Error (ctx ^ ": missing field \"data\"")
  in
  Ok { rule; severity; category; subject; message; data }
