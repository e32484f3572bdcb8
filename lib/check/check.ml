(* The static pre-flight analyzer: one entry point over every
   declarative input of the pipeline — expectation bases, metric
   signatures, event catalogs, thresholds, artifact schemas.  It
   collects no readings; it does build the memoized kernel row tables
   the ideals are read from (cpusim, branchsim or gpusim runs on first
   use).  Individual analyses live in the per-concern modules (Basis_check, Signature_check, Catalog_check,
   Param_check, Stage_check, Result_check); this module wires them to
   the shipped categories and catalogs, owns the rule registry, the
   versioned report JSON, and the optional Pipeline pre-flight gate. *)

module Diagnostic = Core.Diagnostic
module D = Diagnostic

(* Re-export the analysis passes: [check] is the library's main
   module, so siblings are invisible unless surfaced here. *)
module Basis_check = Basis_check
module Signature_check = Signature_check
module Catalog_check = Catalog_check
module Param_check = Param_check
module Stage_check = Stage_check
module Result_check = Result_check

(* ------------------------------------------------------------------ *)
(* Rule registry                                                       *)
(* ------------------------------------------------------------------ *)

type rule = {
  id : string;
  severity : D.severity;
  summary : string;
  grounding : string;
}

let rule id severity summary grounding = { id; severity; summary; grounding }

let rules =
  [
    rule "basis/empty" D.Error "Expectation basis has no directions"
      "Sec. III-B: E's columns are the ideal events";
    rule "basis/duplicate-label" D.Error
      "Two basis directions share one symbol"
      "Signatures key coordinates by symbol";
    rule "basis/zero-direction" D.Error
      "A direction is all-zero over the benchmark rows"
      "Sec. III-B: every ideal must be exercised by some kernel";
    rule "basis/duplicate-direction" D.Error
      "Two directions are elementwise identical"
      "Identical columns make E rank-deficient";
    rule "basis/near-colinear" D.Warn
      "Two directions subtend |cos| >= 0.999"
      "Near-colinear expectations are indistinguishable under noise";
    rule "basis/rank-deficient" D.Error
      "rank(E) is below the direction count"
      "Least-squares coordinates (Sec. VI) are non-unique";
    rule "basis/ill-conditioned" D.Warn
      "cond(E) exceeds 1e6"
      "Conditioning bounds the noise amplification of the fit";
    rule "basis/non-finite" D.Error
      "An ideal vector contains NaN or infinity"
      "Expected counts are finite by definition";
    rule "ideal/shape-mismatch" D.Error
      "Ideal vector length differs from the declared benchmark rows"
      "One entry per kernel row (Sec. III-B)";
    rule "ideal/negative-entry" D.Error
      "An ideal expected count is negative"
      "Ideal events count occurrences";
    rule "sig/duplicate-metric" D.Error
      "Two signatures define the same metric name"
      "Lookups by name silently use the first";
    rule "sig/empty-metric" D.Error "A signature has no coordinates"
      "Tables I-IV: a metric states what it counts";
    rule "sig/dangling-direction" D.Error
      "A signature references an undefined basis symbol"
      "to_vector raises Not_found at run time";
    rule "sig/duplicate-coordinate" D.Error
      "A basis symbol appears twice in one signature"
      "to_vector overwrites, not sums (latent defect class)";
    rule "sig/zero-coefficient" D.Warn
      "A signature coordinate has coefficient 0"
      "Dead weight; usually an editing mistake";
    rule "sig/unused-direction" D.Info
      "No signature references a basis direction"
      "Direction constrains projection but defines no metric";
    rule "catalog/empty-catalog" D.Error "A catalog declares no events"
      "Nothing to measure";
    rule "catalog/duplicate-event" D.Error
      "An event name appears twice in one catalog"
      "Readings/ledger/shard merges key by name (Roehl et al.: \
       validate event definitions)";
    rule "catalog/cross-collision" D.Warn
      "An event name exists in more than one machine catalog"
      "Multi-machine sweeps would merge different counters";
    rule "catalog/no-terms" D.Info
      "An event has no activity terms and zero offset"
      "Modelled PMU clutter; the noise filter discards it (Fig. 2)";
    rule "param/tau-out-of-range" D.Error "tau outside (0, 1)"
      "Eq. 4 variabilities are relative errors";
    rule "param/tau-regime" D.Warn
      "tau outside the paper's per-category regime"
      "Sec. IV: near-zero for exact counts, ~0.1 for dcache";
    rule "param/alpha-out-of-range" D.Error "alpha outside (0, 1)"
      "Algorithm 2's rounding grid";
    rule "param/beta-mismatch" D.Error
      "beta differs from ||(alpha,...,alpha)||"
      "Algorithm 2 line 3 defines beta from alpha";
    rule "param/projection-tol-out-of-range" D.Error
      "Projection tolerance outside (0, 1)"
      "Relative residuals live in [0, 1]";
    rule "param/reps-too-few" D.Error "Fewer than 2 repetitions"
      "Eq. 4 is pairwise over repetition vectors";
    rule "param/unknown-jobs" D.Error
      "Impossible or wasteful --jobs count"
      "[--jobs] sizes the executor's domain pool (error below 1, \
       warning above the shard count)";
    rule "stage/schema-drift" D.Error
      "Shard artifact encoder and decoder disagree"
      "Multi-machine sweeps ship classified-shard JSON between builds";
    rule "result/missing-event" D.Error
      "A metric combination names an event absent from the catalog"
      "Validation would raise Not_found (CounterPoint: check counter \
       assumptions mechanically)";
    rule "result/relative-error" D.Error
      "A validated metric misses its app ground truth"
      "Sec. VI: backward error near zero iff composable";
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) rules

let rules_table () =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "%-34s %-6s %s\n" "RULE" "LEVEL" "CATCHES");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-34s %-6s %s\n" r.id
           (D.severity_name r.severity)
           r.summary))
    rules;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Runners over the shipped categories and catalogs                    *)
(* ------------------------------------------------------------------ *)

let rows_declared = function
  | Core.Category.Cpu_flops -> Array.length Cat_bench.Flops_kernels.row_labels
  | Core.Category.Branch -> Array.length Cat_bench.Branch_kernels.row_labels
  | Core.Category.Gpu_flops -> Array.length Cat_bench.Gpu_kernels.row_labels
  | Core.Category.Dcache -> List.length Cat_bench.Cache_kernels.configs

let catalog_name = function
  | Core.Category.Cpu_flops | Core.Category.Branch | Core.Category.Dcache ->
    "sapphire-rapids"
  | Core.Category.Gpu_flops -> "mi250x"

let shipped_catalogs () =
  [
    ("sapphire-rapids", Hwsim.Catalog_sapphire_rapids.events);
    ("mi250x", Hwsim.Catalog_mi250x.events);
    ("zen", Hwsim.Catalog_zen.events);
  ]

let lint_category ?config c =
  let name = Core.Category.name c in
  let config =
    match config with Some c' -> c' | None -> Core.Pipeline.default_config c
  in
  let ideals = Core.Category.ideals c in
  let rows = rows_declared c in
  let labels =
    Array.of_list (List.map (fun i -> i.Cat_bench.Ideal.label) ideals)
  in
  Basis_check.analyze ~category:name ~expected_rows:rows ideals
  @ Signature_check.analyze ~category:name ~labels
      (Core.Category.signatures c)
  @ Param_check.analyze ~category:name ~config ~rows ()

let run_catalogs () =
  let catalogs = shipped_catalogs () in
  List.concat_map
    (fun (name, events) -> Catalog_check.analyze_catalog ~name events)
    catalogs
  @ Catalog_check.cross_collisions catalogs

let run_all ?(categories = Core.Category.all) () =
  List.concat_map (fun c -> lint_category c) categories
  @ run_catalogs () @ Stage_check.roundtrip ()

(* ------------------------------------------------------------------ *)
(* Versioned report JSON                                               *)
(* ------------------------------------------------------------------ *)

let report_schema_version = 1

let report_to_json ds =
  Jsonio.Obj
    [
      ("schema_version", Jsonio.Num (float_of_int report_schema_version));
      ("kind", Jsonio.Str "lint-report");
      ( "totals",
        Jsonio.Obj
          [
            ("errors", Jsonio.Num (float_of_int (D.count D.Error ds)));
            ("warnings", Jsonio.Num (float_of_int (D.count D.Warn ds)));
            ("infos", Jsonio.Num (float_of_int (D.count D.Info ds)));
          ] );
      ("diagnostics", Jsonio.List (List.map D.to_json ds));
    ]

open Jsonio.Decode

let report_of_json json =
  let ctx = "lint-report" in
  let* version =
    match Jsonio.member "schema_version" json with
    | Some (Jsonio.Num v) when Float.is_integer v -> Ok (int_of_float v)
    | Some _ -> Error (ctx ^ ": field \"schema_version\" is not an integer")
    | None -> Error (ctx ^ ": missing field \"schema_version\"")
  in
  if version <> report_schema_version then
    Error
      (Printf.sprintf
         "unsupported lint-report schema version %d (this build reads \
          version %d)"
         version report_schema_version)
  else
    let* kind =
      match Jsonio.member "kind" json with
      | Some (Jsonio.Str s) -> Ok s
      | Some _ -> Error (ctx ^ ": field \"kind\" is not a string")
      | None -> Error (ctx ^ ": missing field \"kind\"")
    in
    if kind <> "lint-report" then
      Error (Printf.sprintf "%s: unexpected kind %S" ctx kind)
    else
      let* entries =
        match Jsonio.member "diagnostics" json with
        | Some (Jsonio.List l) -> Ok l
        | Some _ -> Error (ctx ^ ": field \"diagnostics\" is not a list")
        | None -> Error (ctx ^ ": missing field \"diagnostics\"")
      in
      map_result D.of_json entries

(* ------------------------------------------------------------------ *)
(* The optional pre-flight gate                                        *)
(* ------------------------------------------------------------------ *)

let gate_lint c =
  lint_category c
  @ Catalog_check.analyze_catalog ~name:(catalog_name c)
      (Core.Category.events c)

let gate diags =
  match D.errors diags with
  | [] ->
    Ok
      {
        Obs.Manifest.errors = 0;
        warns = D.count D.Warn diags;
        infos = D.count D.Info diags;
      }
  | errors -> Error errors
