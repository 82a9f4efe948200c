(* The lint driver: walks OCaml sources, runs the token-lexer rules and
   the AST analyses (taint, race, balance), and honours the in-source
   pragmas:

     (* lw-lint: allow <rule> ... *)          suppress the named rules on
                                              the pragma's line and the
                                              next line
     (* lw-lint: allow <rule> ... lines=N *)  widen the reach to the
                                              pragma's line plus the next
                                              N lines, for multi-line
                                              expressions
     (* lw-lint: secret <name> ... *)         flag identifiers as secret
                                              for this file (lexer rules
                                              and the taint analysis)

   An allow that suppresses nothing in a scan that ran its rule, or that
   names no rule, is itself a finding (unused-allow), so a waiver cannot
   outlive the finding it excused.

   The default one-line reach of [allow] keeps suppressions next to the
   code they excuse; [lines=N] exists so a single waiver can cover one
   multi-line expression without a pragma per line, and N is capped so a
   pragma can never silently waive a whole file. *)

let pragma_prefix = "lw-lint:"
let max_allow_lines = 100

type pragmas = {
  allows : (int * string, unit) Hashtbl.t; (* (line, rule) -> suppressed *)
  sites : (int * string * int) list ref; (* each allow: pragma line, rule, reach *)
  secrets : (string, unit) Hashtbl.t;
}

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

let collect_pragmas tokens =
  let p = { allows = Hashtbl.create 8; sites = ref []; secrets = Hashtbl.create 8 } in
  Array.iter
    (fun { Lexer.kind; line } ->
      match kind with
      | Lexer.Comment body -> (
          match words (String.trim body) with
          | first :: rest when first = pragma_prefix -> (
              match rest with
              | "allow" :: args ->
                  let rules, span =
                    List.fold_left
                      (fun (rules, span) w ->
                        match String.index_opt w '=' with
                        | Some i when String.sub w 0 i = "lines" -> (
                            let v =
                              String.sub w (i + 1) (String.length w - i - 1)
                            in
                            match int_of_string_opt v with
                            | Some n when n >= 0 ->
                                (rules, min n max_allow_lines)
                            | _ -> (rules, span))
                        | _ -> (w :: rules, span))
                      ([], 1) args
                  in
                  List.iter
                    (fun r ->
                      p.sites := (line, r, span) :: !(p.sites);
                      for l = line to line + span do
                        Hashtbl.replace p.allows (l, r) ()
                      done)
                    rules
              | "secret" :: names ->
                  List.iter (fun n -> Hashtbl.replace p.secrets n ()) names
              | _ -> ())
          | _ -> ())
      | _ -> ())
    tokens;
  p

let path_segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")

let basename path =
  match List.rev (path_segments path) with [] -> path | b :: _ -> b

type file_result = {
  findings : Report.finding list;
  suppressed : int;
}

let all_analyses = [ "taint"; "race"; "balance"; "parse-error"; "unused-allow" ]
let analysis_names = all_analyses

(* Split a combined rule/analysis selection into (lexer rules, analyses).
   Unknown names select nothing, matching the CLI's strict filtering. *)
let select_names names =
  let rules =
    List.filter (fun r -> List.mem r.Rules.name names) Rules.all
  in
  let analyses = List.filter (fun a -> List.mem a names) all_analyses in
  (rules, analyses)

(* ------------------------------------------------------------------ *)
(* The combined scan over already-loaded sources                       *)
(* ------------------------------------------------------------------ *)

(* Lint a batch of sources together: lexer rules are per-file, but the
   taint analysis builds one call graph over the whole batch so
   summaries cross file (and library) boundaries. *)
let scan_sources ?(rules = Rules.all) ?(analyses = all_analyses)
    (files : (string * string) list) : (string * file_result) list =
  let module SS = Set.Make (String) in
  let enabled a = List.mem a analyses in
  let per_file =
    List.map
      (fun (path, src) ->
        let tokens = Lexer.tokenize src in
        let pragmas = collect_pragmas tokens in
        (path, src, tokens, pragmas))
      files
  in
  (* lexer-rule findings *)
  let lexer_findings =
    List.concat_map
      (fun (path, _, tokens, pragmas) ->
        let ctx =
          {
            Rules.path;
            path_segments = path_segments path;
            basename = basename path;
            secrets = pragmas.secrets;
          }
        in
        List.concat_map
          (fun r -> if r.Rules.applies ctx then r.Rules.check ctx tokens else [])
          rules)
      per_file
  in
  (* AST analyses *)
  let want_ast = List.exists enabled [ "taint"; "race"; "balance" ] in
  let parsed, parse_failures =
    if not (want_ast || enabled "parse-error") then ([], [])
    else
      List.fold_left
        (fun (ok, bad) (path, src, _, pragmas) ->
          match Syntax.parse ~path src with
          | Ok ast -> ((path, ast, pragmas) :: ok, bad)
          | Error msg ->
              ( ok,
                {
                  Report.rule = "parse-error";
                  file = path;
                  line = 1;
                  message = "source does not parse: " ^ msg;
                }
                :: bad ))
        ([], []) (List.rev per_file)
      |> fun (ok, bad) -> (List.rev ok, List.rev bad)
  in
  let taint_findings =
    if not (enabled "taint") then []
    else
      Taint.analyze
        (List.map
           (fun (path, ast, pragmas) ->
             {
               Taint.i_path = path;
               i_ast = ast;
               i_secrets =
                 Hashtbl.fold (fun k () s -> SS.add k s) pragmas.secrets
                   SS.empty;
             })
           parsed)
  in
  let race_findings =
    if not (enabled "race") then []
    else
      List.concat_map (fun (path, ast, _) -> Race.analyze_file ~path ast) parsed
  in
  let balance_findings =
    if not (enabled "balance") then []
    else
      List.concat_map
        (fun (path, ast, _) -> Balance.analyze_file ~path ast)
        parsed
  in
  let all =
    lexer_findings
    @ (if enabled "parse-error" then parse_failures else [])
    @ taint_findings @ race_findings @ balance_findings
  in
  (* An allow pragma checks out when the scan ran its rule; one that
     names no rule at all never can. *)
  let known r = List.exists (fun x -> x.Rules.name = r) Rules.all || List.mem r all_analyses in
  let ran r = List.exists (fun x -> x.Rules.name = r) rules || enabled r in
  (* per-file pragma suppression, then the allows that suppressed nothing *)
  List.map
    (fun (path, _, _, pragmas) ->
      let mine = List.filter (fun f -> f.Report.file = path) all in
      let kept, dropped =
        List.partition
          (fun f -> not (Hashtbl.mem pragmas.allows (f.Report.line, f.Report.rule)))
          mine
      in
      let unused =
        if not (enabled "unused-allow") then []
        else
          List.filter_map
            (fun (line, r, span) ->
              let used =
                List.exists
                  (fun f ->
                    f.Report.rule = r && f.Report.line >= line && f.Report.line <= line + span)
                  dropped
              in
              if used || (known r && not (ran r)) then None
              else
                Some
                  {
                    Report.rule = "unused-allow";
                    file = path;
                    line;
                    message =
                      (if known r then Printf.sprintf "allow %s suppresses nothing" r
                       else Printf.sprintf "allow %s names no rule" r);
                  })
            (List.rev !(pragmas.sites))
      in
      (path, { findings = kept @ unused; suppressed = List.length dropped }))
    per_file

(* Lint one already-loaded source. [path] decides which rules apply, so
   tests can hand in fixture snippets under virtual paths like
   "lib/crypto/fixture.ml". *)
let scan_source ?rules ?analyses ~path src =
  match scan_sources ?rules ?analyses [ (path, src) ] with
  | [ (_, r) ] -> r
  | _ -> { findings = []; suppressed = 0 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let skip_dirs = [ "_build"; ".git"; "_opam"; "node_modules" ]

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if List.mem entry skip_dirs then []
           else ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

(* Lint every .ml file under [paths] (files or directories). *)
let scan_paths ?rules ?analyses paths =
  let clock = Lw_obs.Span.clock () in
  let t0 = Lw_obs.Clock.now clock in
  let files = List.concat_map ml_files_under paths in
  let results =
    scan_sources ?rules ?analyses (List.map (fun f -> (f, read_file f)) files)
  in
  let elapsed = Lw_obs.Clock.now clock -. t0 in
  Report.make ~files_scanned:(List.length files)
    ~findings:(List.concat_map (fun (_, r) -> r.findings) results)
    ~suppressed:(List.fold_left (fun a (_, r) -> a + r.suppressed) 0 results)
    ~elapsed_s:elapsed ()

(* Resolve a repo-relative directory such as "lib" from wherever the
   process happens to run: the source root, test/ inside _build, or the
   _build context root itself. *)
let resolve_dir name =
  let candidates = [ name; Filename.concat ".." name; Filename.concat "../.." name ] in
  List.find_opt (fun p -> Sys.file_exists p && Sys.is_directory p) candidates

(* Same, for a plain file such as the checked-in lint baseline. *)
let resolve_file name =
  let candidates = [ name; Filename.concat ".." name; Filename.concat "../.." name ] in
  List.find_opt
    (fun p -> Sys.file_exists p && not (Sys.is_directory p))
    candidates
