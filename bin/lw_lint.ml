(* lw_lint [--json] [--rules r1,r2] [--baseline FILE | --no-baseline]
           [--write-baseline] [paths...]

   Side-channel & hygiene lint over OCaml sources: the rules and the
   analyses (taint, race, balance), over the typed tree (.cmt) the build
   wrote for each file (a file without a fresh one is a typed-tree
   finding). Default scope is lib/ bin/ bench/. Findings present in the
   checked-in baseline (lint_baseline.txt at the repo root) are accepted
   and do not affect the exit status; everything else must be fixed or
   waived with an in-source pragma. A baseline entry accepts at most its count of
   findings; one in the scan's scope that matches fewer is itself a
   finding (stale-baseline), and so is an allow pragma that suppresses
   nothing (unused-allow). Exit status: 0 clean, 1 fresh findings, 2
   usage/IO error (an unknown option, or a --rules name that is neither
   a rule nor an analysis, among them). *)

module Analyzer = Lw_analysis.Analyzer
module Report = Lw_analysis.Report
module Baseline = Lw_analysis.Baseline

let default_roots = [ "lib"; "bin"; "bench" ]
let default_baseline = "lint_baseline.txt"

let usage () =
  prerr_endline
    "usage: lw_lint [--json] [--rules r1,r2] [--baseline FILE | \
     --no-baseline] [--write-baseline] [paths...]";
  prerr_endline "  --json            emit the report as JSON";
  prerr_endline
    "  --rules LIST      comma-separated rule/analysis names to run \
     (default: all)";
  prerr_endline
    "  --baseline FILE   accepted-findings file (default: \
     lint_baseline.txt if present)";
  prerr_endline "  --no-baseline     ignore any baseline file";
  prerr_endline
    "  --write-baseline  write current findings to the baseline file and \
     exit";
  prerr_endline
    "  paths             .ml files or directories (default: lib bin bench)";
  exit 2

type opts = {
  mutable json : bool;
  mutable rules : string list option;
  mutable baseline : string option;
  mutable no_baseline : bool;
  mutable write_baseline : bool;
  mutable paths : string list;
}

let parse_args args =
  let o =
    {
      json = false;
      rules = None;
      baseline = None;
      no_baseline = false;
      write_baseline = false;
      paths = [];
    }
  in
  let rec go = function
    | [] -> o
    | ("--help" | "-help") :: _ -> usage ()
    | "--json" :: rest ->
        o.json <- true;
        go rest
    | "--no-baseline" :: rest ->
        o.no_baseline <- true;
        go rest
    | "--write-baseline" :: rest ->
        o.write_baseline <- true;
        go rest
    | "--rules" :: spec :: rest ->
        o.rules <-
          Some
            (String.split_on_char ',' spec |> List.filter (fun s -> s <> ""));
        go rest
    | "--baseline" :: file :: rest ->
        o.baseline <- Some file;
        go rest
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        Printf.eprintf "lw_lint: unknown option %s\n" flag;
        usage ()
    | p :: rest ->
        o.paths <- o.paths @ [ p ];
        go rest
  in
  go args

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  let rules, analyses =
    match o.rules with
    | None -> (None, None)
    | Some names -> (
        match Analyzer.select_names names with
        | Ok (r, a) -> (Some r, Some a)
        | Error unknown ->
            Printf.eprintf "lw_lint: no rule or analysis named %s\n"
              (String.concat ", " unknown);
            usage ())
  in
  let paths =
    match o.paths with
    | [] -> (
        match List.filter_map Analyzer.resolve_dir default_roots with
        | [] ->
            prerr_endline
              "lw_lint: no paths given and none of lib/ bin/ bench/ found";
            exit 2
        | roots -> roots)
    | ps -> ps
  in
  (match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
  | Some missing ->
      Printf.eprintf "lw_lint: no such file or directory: %s\n" missing;
      exit 2
  | None -> ());
  let report = Analyzer.scan_paths ?rules ?analyses paths in
  let baseline_path =
    if o.no_baseline then None
    else
      match o.baseline with
      | Some f -> Some f
      | None -> Analyzer.resolve_file default_baseline
  in
  if o.write_baseline then begin
    let target = Option.value baseline_path ~default:default_baseline in
    Baseline.save target report.Report.findings;
    Printf.printf "lw_lint: wrote %d finding(s) to %s\n"
      (List.length report.Report.findings)
      target;
    exit 0
  end;
  let fresh, accepted =
    match baseline_path with
    | None -> (report.Report.findings, 0)
    | Some f ->
        let entries = Baseline.load f in
        let fresh, accepted = Baseline.apply entries report.Report.findings in
        ( fresh
          @ Baseline.stale ~baseline_file:f ~roots:paths ~rules:o.rules entries
              report.Report.findings,
          accepted )
  in
  let report =
    Report.make ~baselined:accepted
      ~files_scanned:report.Report.files_scanned ~findings:fresh
      ~suppressed:report.Report.suppressed ~elapsed_s:report.Report.elapsed_s
      ()
  in
  if o.json then
    print_endline (Lw_json.Json.to_string (Report.to_json report))
  else print_string (Report.to_human report);
  exit (if Report.clean report then 0 else 1)
