(* lw_lint [--json]

   Side-channel & hygiene lint over the repo's OCaml sources: the rules
   and the analyses (taint, race, balance) over every .ml file in
   [Analyzer.scope] (lib/ bin/ bench/ examples/), each through the typed
   tree (.cmt) the build wrote for it (a file without a fresh one is a
   typed-tree finding). A finding is fixed, or waived at its site with
   an allow pragma and the reason beside it; an allow pragma that
   suppresses nothing is itself a finding (unused-allow). Exit status:
   0 clean, 1 findings, 2 usage/IO error (any argument but --json, or
   no repo root in reach). *)

module Analyzer = Lw_analysis.Analyzer
module Report = Lw_analysis.Report

let usage () =
  prerr_endline "usage: lw_lint [--json]";
  prerr_endline "  --json  emit the report as JSON";
  Printf.eprintf "scans every .ml file under %s/ of the repo\n" (String.concat "/ " Analyzer.scope);
  exit 2

let () =
  let json =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "--json" ] -> true
    | ("--help" | "-help") :: _ -> usage ()
    | arg :: _ ->
        Printf.eprintf "lw_lint: unexpected argument %s\n" arg;
        usage ()
  in
  let root =
    match Analyzer.repo_root () with
    | Some root -> root
    | None ->
        Printf.eprintf "lw_lint: none of ., .. and ../.. holds %s/\n"
          (String.concat "/ " Analyzer.scope);
        exit 2
  in
  let report = Analyzer.scan root in
  if json then print_endline (Lw_json.Json.to_string (Report.to_json report))
  else print_string (Report.to_human report);
  exit (if Report.clean report then 0 else 1)
