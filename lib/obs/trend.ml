(* Cross-run trend analysis: per-span quantile trajectories over a
   series of manifests of one config, with the bench_check regression
   policy applied to the last run and a largest-sustained-level-shift
   change-point marker on the p50 series.

   The policy is one constant, defined here so bench_check and the
   `analyze trend` gate share it — one notion of "regressed" across
   benches and stored pipeline runs. *)

let ratio = 3.0
let slack_ms = 5.0
let limit baseline = Float.max (baseline *. ratio) (baseline +. slack_ms)

type point = {
  run : int;
  created_unix : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  total_ms : float;
  count : int;
}

type change_point = {
  at : int;
  before_mean_ms : float;
  after_mean_ms : float;
  shift_ms : float;
  significant : bool;
}

type span_trend = {
  span : string;
  points : point list;
  baseline_p50_ms : float;
  current_p50_ms : float;
  limit_p50_ms : float;
  regressed_p50 : bool;
  baseline_p99_ms : float;
  current_p99_ms : float;
  limit_p99_ms : float;
  regressed_p99 : bool;
  change_point : change_point option;
}

type t = {
  config_digest : string;
  label : string;
  runs : int;
  spans : span_trend list;
}

let ms ns = ns /. 1e6

(* Median of a non-empty list (mean of the middle pair for even
   lengths) — the baseline statistic: robust to one earlier outlier,
   unlike the mean, and exact for the common flat series. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Largest sustained level shift on [series]: the split k (1 <= k < n)
   maximizing |mean(after) - mean(before)|.  Significant when either
   segment mean breaks the regression limit computed from the other —
   the same policy the last-run verdict uses, so a marker means "the
   gate would have fired across this boundary". *)
let find_change_point points =
  let n = List.length points in
  if n < 3 then None
  else begin
    let series = List.map (fun p -> p.p50_ms) points in
    let best = ref None in
    for k = 1 to n - 1 do
      let before = List.filteri (fun i _ -> i < k) series in
      let after = List.filteri (fun i _ -> i >= k) series in
      let bm = mean before and am = mean after in
      let shift = Float.abs (am -. bm) in
      match !best with
      | Some (_, _, _, s) when s >= shift -> ()
      | _ -> best := Some (k, bm, am, shift)
    done;
    Option.map
      (fun (k, bm, am, shift) ->
        let significant =
          am > limit bm || bm > limit am
        in
        {
          at = (List.nth points k).run;
          before_mean_ms = bm;
          after_mean_ms = am;
          shift_ms = shift;
          significant;
        })
      !best
  end

let span_names (ms : Manifest.t list) =
  List.concat_map
    (fun (m : Manifest.t) ->
      List.map (fun (s : Manifest.span_stat) -> s.Manifest.span) m.Manifest.spans)
    ms
  |> List.sort_uniq compare

let analyze ?seqs (manifests : Manifest.t list) =
  match manifests with
  | [] | [ _ ] -> Error "trend needs at least two runs of the same config"
  | first :: rest ->
    let digest = first.Manifest.config_digest in
    let bad =
      List.find_opt
        (fun (m : Manifest.t) -> m.Manifest.config_digest <> digest)
        rest
    in
    (match bad with
    | Some m ->
      Error
        (Printf.sprintf
           "runs are not one trajectory: config digest %s vs %s" digest
           m.Manifest.config_digest)
    | None -> (
      let n = List.length manifests in
      match seqs with
      | Some s when List.length s <> n ->
        Error
          (Printf.sprintf "%d sequence labels for %d manifests"
             (List.length s) n)
      | _ ->
        let seqs =
          match seqs with Some s -> s | None -> List.init n Fun.id
        in
        let spans =
          List.filter_map
            (fun name ->
              let points =
                List.filter_map
                  (fun (run, (m : Manifest.t)) ->
                    Option.map
                      (fun (s : Manifest.span_stat) ->
                        {
                          run;
                          created_unix = m.Manifest.created_unix;
                          p50_ms = ms s.Manifest.p50_ns;
                          p90_ms = ms s.Manifest.p90_ns;
                          p99_ms = ms s.Manifest.p99_ns;
                          total_ms = ms s.Manifest.total_ns;
                          count = s.Manifest.count;
                        })
                      (List.find_opt
                         (fun (s : Manifest.span_stat) ->
                           s.Manifest.span = name)
                         m.Manifest.spans))
                  (List.combine seqs manifests)
              in
              if List.length points < 2 then None
              else begin
                let earlier =
                  List.filteri (fun i _ -> i < List.length points - 1) points
                in
                let current = List.nth points (List.length points - 1) in
                let verdict extract =
                  let baseline = median (List.map extract earlier) in
                  let cur = extract current in
                  let limit = limit baseline in
                  (baseline, cur, limit, cur > limit)
                in
                let b50, c50, l50, r50 = verdict (fun p -> p.p50_ms) in
                let b99, c99, l99, r99 = verdict (fun p -> p.p99_ms) in
                Some
                  {
                    span = name;
                    points;
                    baseline_p50_ms = b50;
                    current_p50_ms = c50;
                    limit_p50_ms = l50;
                    regressed_p50 = r50;
                    baseline_p99_ms = b99;
                    current_p99_ms = c99;
                    limit_p99_ms = l99;
                    regressed_p99 = r99;
                    change_point = find_change_point points;
                  }
              end)
            (span_names manifests)
        in
        Ok
          {
            config_digest = digest;
            label = first.Manifest.label;
            runs = n;
            spans;
          }))

let regressions t =
  List.filter (fun s -> s.regressed_p50 || s.regressed_p99) t.spans

let change_points t =
  List.filter
    (fun s ->
      match s.change_point with Some c -> c.significant | None -> false)
    t.spans

let passed t = regressions t = []

let render t =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "trend: %s, config %s, %d runs (policy: current > max(baseline*%g, \
     baseline+%gms))\n"
    t.label t.config_digest t.runs ratio slack_ms;
  Printf.bprintf buf "%-24s %4s %10s %10s %10s %10s %10s  %s\n" "span" "runs"
    "base p50" "cur p50" "limit p50" "cur p90" "cur p99" "verdict";
  List.iter
    (fun s ->
      let current = List.nth s.points (List.length s.points - 1) in
      let verdict =
        if s.regressed_p50 || s.regressed_p99 then "REGRESSED"
        else "ok"
      in
      let marker =
        match s.change_point with
        | Some c when c.significant ->
          Printf.sprintf "  shift at run %d (%.3f -> %.3f ms)" c.at
            c.before_mean_ms c.after_mean_ms
        | _ -> ""
      in
      Printf.bprintf buf "%-24s %4d %10.3f %10.3f %10.3f %10.3f %10.3f  %s%s\n"
        s.span (List.length s.points) s.baseline_p50_ms s.current_p50_ms
        s.limit_p50_ms current.p90_ms current.p99_ms verdict marker)
    t.spans;
  let r = regressions t in
  Printf.bprintf buf "trend: %s (%d span(s) regressed, %d change point(s))\n"
    (if r = [] then "ok" else "REGRESSED")
    (List.length r)
    (List.length (change_points t));
  Buffer.contents buf

let point_to_json p =
  Jsonio.Obj
    [
      ("run", Jsonio.Num (float_of_int p.run));
      ("created_unix", Jsonio.Num p.created_unix);
      ("p50_ms", Jsonio.fnum p.p50_ms);
      ("p90_ms", Jsonio.fnum p.p90_ms);
      ("p99_ms", Jsonio.fnum p.p99_ms);
      ("total_ms", Jsonio.fnum p.total_ms);
      ("count", Jsonio.Num (float_of_int p.count));
    ]

let to_json t =
  Jsonio.Obj
    [
      ("config_digest", Jsonio.Str t.config_digest);
      ("label", Jsonio.Str t.label);
      ("runs", Jsonio.Num (float_of_int t.runs));
      ( "threshold",
        Jsonio.Obj
          [
            ("ratio", Jsonio.fnum ratio);
            ("slack_ms", Jsonio.fnum slack_ms);
          ] );
      ("passed", Jsonio.Bool (passed t));
      ( "spans",
        Jsonio.List
          (List.map
             (fun s ->
               Jsonio.Obj
                 [
                   ("span", Jsonio.Str s.span);
                   ("points", Jsonio.List (List.map point_to_json s.points));
                   ("baseline_p50_ms", Jsonio.fnum s.baseline_p50_ms);
                   ("current_p50_ms", Jsonio.fnum s.current_p50_ms);
                   ("limit_p50_ms", Jsonio.fnum s.limit_p50_ms);
                   ("regressed_p50", Jsonio.Bool s.regressed_p50);
                   ("baseline_p99_ms", Jsonio.fnum s.baseline_p99_ms);
                   ("current_p99_ms", Jsonio.fnum s.current_p99_ms);
                   ("limit_p99_ms", Jsonio.fnum s.limit_p99_ms);
                   ("regressed_p99", Jsonio.Bool s.regressed_p99);
                   ( "change_point",
                     match s.change_point with
                     | None -> Jsonio.Null
                     | Some c ->
                       Jsonio.Obj
                         [
                           ("at", Jsonio.Num (float_of_int c.at));
                           ("before_mean_ms", Jsonio.fnum c.before_mean_ms);
                           ("after_mean_ms", Jsonio.fnum c.after_mean_ms);
                           ("shift_ms", Jsonio.fnum c.shift_ms);
                           ("significant", Jsonio.Bool c.significant);
                         ] );
                 ])
             t.spans) );
    ]
