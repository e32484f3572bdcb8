type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* The runtime conversion behind Printf's [%g]/[%f], called directly:
   the same bytes as [Printf.sprintf "%.17g"], without interpreting a
   format on every number. *)
external format_float : string -> float -> string = "caml_format_float"

let number_string f =
  if Float.is_finite f then begin
    if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
    else format_float "%.17g" f
  end
  else "null"

(* The pretty printer's output: a fixed chunk, handed to [flush]
   whenever it fills and once at the end. *)
type out = { chunk : Bytes.t; mutable len : int; flush : Bytes.t -> int -> unit }

let drain o =
  if o.len > 0 then begin
    o.flush o.chunk o.len;
    o.len <- 0
  end

let out_char o c =
  if o.len = Bytes.length o.chunk then drain o;
  Bytes.unsafe_set o.chunk o.len c;
  o.len <- o.len + 1

let out_string o s =
  let pos = ref 0 in
  while !pos < String.length s do
    if o.len = Bytes.length o.chunk then drain o;
    let k = min (String.length s - !pos) (Bytes.length o.chunk - o.len) in
    Bytes.blit_string s !pos o.chunk o.len k;
    o.len <- o.len + k;
    pos := !pos + k
  done

(* The quoted, escaped form of [s]: the printers write this for
   every key and string value. *)
let out_escaped o s =
  out_char o '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> out_string o "\\\""
      | '\\' -> out_string o "\\\\"
      | '\n' -> out_string o "\\n"
      | '\r' -> out_string o "\\r"
      | '\t' -> out_string o "\\t"
      | c when Char.code c < 0x20 -> out_string o (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> out_char o c)
    s;
  out_char o '"'

(* [out_escaped] into a chunk that cannot fill: no byte needs more
   than the six of [\u00XX]. *)
let escape s =
  let chunk = Bytes.create ((6 * String.length s) + 2) in
  let o = { chunk; len = 0; flush = (fun _ _ -> ()) } in
  out_escaped o s;
  Bytes.sub_string o.chunk 0 o.len

let output ?(indent = 2) flush t =
  let o = { chunk = Bytes.create 65536; len = 0; flush } in
  let pad level =
    for _ = 1 to level * indent do
      out_char o ' '
    done
  in
  let rec go level = function
    | Null -> out_string o "null"
    | Bool b -> out_string o (if b then "true" else "false")
    | Num f -> out_string o (number_string f)
    | Str s -> out_escaped o s
    | List [] -> out_string o "[]"
    | List items ->
      out_string o "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then out_string o ",\n";
          pad (level + 1);
          go (level + 1) item)
        items;
      out_char o '\n';
      pad level;
      out_char o ']'
    | Obj [] -> out_string o "{}"
    | Obj fields ->
      out_string o "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then out_string o ",\n";
          pad (level + 1);
          out_escaped o k;
          out_string o ": ";
          go (level + 1) v)
        fields;
      out_char o '\n';
      pad level;
      out_char o '}'
  in
  go 0 t;
  drain o

(* Single-line form, for line-oriented logs (JSONL). *)
let output_compact flush t =
  let o = { chunk = Bytes.create 65536; len = 0; flush } in
  let rec go = function
    | Null -> out_string o "null"
    | Bool b -> out_string o (if b then "true" else "false")
    | Num f -> out_string o (number_string f)
    | Str s -> out_escaped o s
    | List items ->
      out_char o '[';
      List.iteri
        (fun i item ->
          if i > 0 then out_char o ',';
          go item)
        items;
      out_char o ']'
    | Obj fields ->
      out_char o '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then out_char o ',';
          out_escaped o k;
          out_char o ':';
          go v)
        fields;
      out_char o '}'
  in
  go t;
  drain o

let contents print =
  let buf = Buffer.create 256 in
  print (fun b n -> Buffer.add_subbytes buf b 0 n);
  Buffer.contents buf

let to_string ?indent t = contents (fun flush -> output ?indent flush t)

let to_string_compact t = contents (fun flush -> output_compact flush t)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let of_string s =
  let pos = ref 0 in
  let n = String.length s in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    if
      !pos + String.length lit <= n
      && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail (Printf.sprintf "bad literal (expected %s)" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'; advance ()
        | '\\' -> Buffer.add_char buf '\\'; advance ()
        | '/' -> Buffer.add_char buf '/'; advance ()
        | 'n' -> Buffer.add_char buf '\n'; advance ()
        | 'r' -> Buffer.add_char buf '\r'; advance ()
        | 't' -> Buffer.add_char buf '\t'; advance ()
        | 'b' -> Buffer.add_char buf '\b'; advance ()
        | 'f' -> Buffer.add_char buf '\012'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code =
            match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          (* The emitter only writes \u for control characters; decode
             code points below 256 to the byte, others to '?' (we never
             emit them, but a foreign document should still parse). *)
          Buffer.add_char buf (if code < 256 then Char.chr code else '?');
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > 512 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_float_opt = function Num f -> Some f | _ -> None

(* Evidence values can legitimately be non-finite (a NaN variability
   from a corrupt import is itself evidence), and plain JSON numbers
   cannot carry them — encode non-finite floats as tagged strings so
   documents round-trip losslessly.  Shared by the provenance ledger
   and the pipeline's shard artifacts. *)
let fnum f =
  if Float.is_finite f then Num f
  else if Float.is_nan f then Str "nan"
  else if f > 0.0 then Str "inf"
  else Str "-inf"

let fnum_opt = function
  | Num f -> Some f
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

(* ------------------------------------------------------------------ *)
(* Strict decoding                                                     *)
(* ------------------------------------------------------------------ *)

module Decode = struct
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

  let rec map_result f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

  let d_field ctx name json =
    match member name json with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing field %S" ctx name)

  let typed what conv ctx name json =
    let* v = d_field ctx name json in
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "%s: field %S is not %s" ctx name what)

  let d_float = typed "a number" fnum_opt
  let d_num = typed "a number" to_float_opt
  let d_str = typed "a string" to_string_opt
  let d_bool = typed "a boolean" to_bool_opt
  let d_list = typed "a list" to_list_opt

  let integral ctx name = function
    | Ok f when Float.is_integer f -> Ok (int_of_float f)
    | Ok _ -> Error (Printf.sprintf "%s: field %S is not an integer" ctx name)
    | Error _ as e -> e

  let d_int ctx name json = integral ctx name (d_float ctx name json)
  let d_num_int ctx name json = integral ctx name (d_num ctx name json)
end
