(* The lint pass: runs the rules and the analyses (taint, race,
   balance) over the compiler's typed tree of each source ([Front]), and
   honours the in-source pragmas, which it reads from the comments the
   compiler's lexer set aside:

     (* lw-lint: allow <rule> ... *)          suppress the named rules on
                                              the pragma's line and the
                                              next line
     (* lw-lint: allow <rule> ... lines=N *)  widen the reach to the
                                              pragma's line plus the next
                                              N lines, for multi-line
                                              expressions
     (* lw-lint: secret <name> ... *)         flag identifiers as secret
                                              for this file (the rules
                                              and the taint analysis)

   An allow that suppresses nothing in a scan that ran its rule, or that
   names no rule, is itself a finding (unused-allow), so a waiver cannot
   outlive the finding it excused. A source without a fresh typed tree
   (its .cmt missing or older than the source, or a fixture that does
   not type) yields its typed-tree finding and nothing else: the scan
   fails closed, never skips it.

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

(* [comments] are the compiler lexer's: each body without its [(*] and
   [*)], nested comments inline, at the line the comment opens. *)
let collect_pragmas comments =
  let p = { allows = Hashtbl.create 8; sites = ref []; secrets = Hashtbl.create 8 } in
  List.iter
    (fun (body, loc) ->
      let line = Front.line loc in
      match words (String.trim body) with
      | first :: "allow" :: args when first = pragma_prefix ->
          let rules, span =
            List.fold_left
              (fun (rules, span) w ->
                match String.index_opt w '=' with
                | Some i when String.sub w 0 i = "lines" -> (
                    let v = String.sub w (i + 1) (String.length w - i - 1) in
                    match int_of_string_opt v with
                    | Some n when n >= 0 -> (rules, min n max_allow_lines)
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
      | first :: "secret" :: names when first = pragma_prefix ->
          List.iter (fun n -> Hashtbl.replace p.secrets n ()) names
      | _ -> ())
    comments;
  p

let path_segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")

let basename path =
  match List.rev (path_segments path) with [] -> path | b :: _ -> b

type file_result = {
  findings : Report.finding list;
  suppressed : int;
}

let all_analyses = [ "taint"; "race"; "balance"; "typed-tree"; "unused-allow" ]

let known name = List.exists (fun r -> r.Rules.name = name) Rules.all || List.mem name all_analyses

(* ------------------------------------------------------------------ *)
(* The combined scan over typed trees                                  *)
(* ------------------------------------------------------------------ *)

(* Lint a batch of sources, each with its typed tree or, without one, the
   line and why. The rules are per-file, but the taint analysis builds
   one call graph over the whole batch so summaries cross file (and
   library) boundaries. *)
let scan_units ?(rules = Rules.all) ?(analyses = all_analyses) typed =
  let enabled a = List.mem a analyses in
  let typed =
    List.map
      (fun (path, t) -> (path, Result.map (fun u -> (u, collect_pragmas u.Front.comments)) t))
      typed
  in
  let units = List.filter_map (fun (_, t) -> Result.to_option t) typed in
  let for_each f = List.concat_map (fun (u, pragmas) -> f u pragmas) units in
  let rule_findings =
    for_each (fun u pragmas ->
        let ctx =
          {
            Rules.path = u.source;
            path_segments = path_segments u.source;
            basename = basename u.source;
            secrets = pragmas.secrets;
          }
        in
        match List.filter (fun r -> r.Rules.applies ctx) rules with
        | [] -> []
        | applicable ->
            let uses = Rules.uses_of u in
            List.concat_map (fun r -> r.Rules.check ctx uses) applicable)
  in
  let taint_findings =
    if not (enabled "taint") then []
    else
      let input (u : Front.unit_) pragmas =
        { Taint.i_unit = u; i_secrets = Taint.SS.of_seq (Seq.map fst (Hashtbl.to_seq pragmas.secrets)) }
      in
      Taint.analyze (List.map (fun (u, pragmas) -> input u pragmas) units)
  in
  let race_findings = if enabled "race" then for_each (fun u _ -> Race.analyze_file u) else [] in
  let balance_findings =
    if enabled "balance" then for_each (fun u _ -> Balance.analyze_file u) else []
  in
  let all = rule_findings @ taint_findings @ race_findings @ balance_findings in
  (* An allow pragma checks out when the scan ran its rule; one that
     names no rule at all never can. *)
  let ran r = List.exists (fun x -> x.Rules.name = r) rules || enabled r in
  (* per-file pragma suppression, then the allows that suppressed nothing *)
  let suppress (u : Front.unit_) pragmas =
    let mine = List.filter (fun f -> f.Report.file = u.source) all in
    let kept, dropped =
      List.partition (fun f -> not (Hashtbl.mem pragmas.allows (f.Report.line, f.Report.rule))) mine
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
                (Report.finding "unused-allow" u.source line
                   (if known r then Printf.sprintf "allow %s suppresses nothing" r
                    else Printf.sprintf "allow %s names no rule" r)))
          (List.rev !(pragmas.sites))
    in
    { findings = kept @ unused; suppressed = List.length dropped }
  in
  List.map
    (fun (path, t) ->
      match t with
      | Ok (u, pragmas) -> (path, suppress u pragmas)
      | Error (line, why) ->
          let findings =
            if enabled "typed-tree" then
              [ Report.finding "typed-tree" path line ("no typed tree: " ^ why) ]
            else []
          in
          (path, { findings; suppressed = 0 }))
    typed

(* Lint in-memory sources: each is typed against the built libraries,
   seeing the ones before it, so tests can hand in fixtures under virtual
   paths like "lib/crypto/fixture.ml", which decide the rules that apply. *)
let scan_sources ?rules ?analyses files = scan_units ?rules ?analyses (Front.typed_fixtures files)

(* Lint one in-memory source. *)
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

(* The lint's one scope: the repo directories whose .ml files it scans. *)
let scope = [ "lib"; "bin"; "bench"; "examples" ]

let is_dir p = Sys.file_exists p && Sys.is_directory p

(* The repo root from wherever the process happens to run: the source
   root, test/ inside _build, or the _build context root itself ("" is
   the working directory, so findings read "lib/..."). *)
let repo_root () =
  List.find_opt
    (fun root -> List.for_all (fun d -> is_dir (Filename.concat root d)) scope)
    [ ""; ".."; "../.." ]

(* Lint every .ml file under [root]'s [scope] directories through the
   typed tree the build wrote for it. *)
let scan root =
  let clock = Lw_obs.Span.clock () in
  let t0 = Lw_obs.Clock.now clock in
  let dirs = List.filter (fun d -> is_dir (Filename.concat root d)) scope in
  let files =
    List.concat_map (fun d -> ml_files_under (Filename.concat root d)) dirs
    |> List.map (fun f -> (f, Front.normalize_path f))
  in
  let built = Front.load dirs in
  let results =
    scan_units
      (List.map
         (fun (f, key) ->
           ( f,
             match List.assoc_opt key built with
             | Some (Some digest, u) when Digest.file f = digest -> Ok { u with Front.source = f }
             | Some _ -> Error (1, "the .cmt was built from other contents; rebuild")
             | None -> Error (1, "no build stanza compiles this source") ))
         files)
  in
  let elapsed = Lw_obs.Clock.now clock -. t0 in
  Report.make ~files_scanned:(List.length files)
    ~findings:(List.concat_map (fun (_, r) -> r.findings) results)
    ~suppressed:(List.fold_left (fun a (_, r) -> a + r.suppressed) 0 results)
    ~elapsed_s:elapsed
