(* Checked-in lint baseline: accepted findings that must not block CI,
   stored one per line as `rule<TAB>path<TAB>message`. Entries carry no
   line numbers — the key is (rule, normalized path, message) — so the
   baseline survives unrelated line churn; a finding whose message
   changes is a new finding and must be fixed or re-accepted
   deliberately.

   Paths are normalized to start at a known repo root (lib/, bin/,
   bench/, test/) so the same baseline matches scans run from the
   source tree, from dune's _build sandbox, or with ../-style
   prefixes. *)

let roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let normalize_path p =
  let segs =
    List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' p)
  in
  let rec find = function
    | [] -> None
    | s :: _ as l when List.mem s roots -> Some l
    | _ :: rest -> find rest
  in
  match find segs with
  | Some l -> String.concat "/" l
  | None -> String.concat "/" (List.filter (fun s -> s <> "..") segs)

type entry = { b_rule : string; b_file : string; b_message : string; b_line : int }

let key_of_finding (f : Report.finding) =
  (f.rule, normalize_path f.file, f.message)

let parse_line ?(number = 0) line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char '\t' line with
    | rule :: file :: rest when rest <> [] ->
        Some
          {
            b_rule = rule;
            b_file = normalize_path file;
            b_message = String.concat "\t" rest;
            b_line = number;
          }
    | _ -> None

let load path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let entries = ref [] and number = ref 0 in
          (try
             while true do
               let line = input_line ic in
               incr number;
               match parse_line ~number:!number line with
               | Some e -> entries := e :: !entries
               | None -> ()
             done
           with End_of_file -> ());
          List.rev !entries)

(* Split findings into (fresh, accepted-count) against the baseline. *)
let apply entries findings =
  let set = Hashtbl.create (List.length entries * 2 + 1) in
  List.iter
    (fun e -> Hashtbl.replace set (e.b_rule, e.b_file, e.b_message) ())
    entries;
  let fresh, accepted =
    List.partition
      (fun f -> not (Hashtbl.mem set (key_of_finding f)))
      findings
  in
  (fresh, List.length accepted)

(* Entries the scan could have matched but did not: an acceptance of a
   finding that is gone, which would otherwise silently accept its
   return. [roots] are the scanned paths (an entry is in scope when its
   file is one of them or lies under one) and [rules] the rule names
   the scan ran ([None]: all of them). Each is a "stale-baseline"
   finding at its line of [baseline_file]. *)
let stale ~baseline_file ~roots ~rules entries findings =
  let roots = List.map normalize_path roots in
  let in_scope e =
    List.exists (fun r -> e.b_file = r || String.starts_with ~prefix:(r ^ "/") e.b_file) roots
    && match rules with None -> true | Some names -> List.mem e.b_rule names
  in
  let found = Hashtbl.create (List.length findings * 2 + 1) in
  List.iter (fun f -> Hashtbl.replace found (key_of_finding f) ()) findings;
  List.filter_map
    (fun e ->
      if in_scope e && not (Hashtbl.mem found (e.b_rule, e.b_file, e.b_message)) then
        Some
          {
            Report.rule = "stale-baseline";
            file = baseline_file;
            line = e.b_line;
            message =
              Printf.sprintf "baseline entry matches no finding: %s %s: %s" e.b_rule e.b_file
                e.b_message;
          }
      else None)
    entries

let save path findings =
  let lines =
    List.sort_uniq compare
      (List.map
         (fun (f : Report.finding) ->
           Printf.sprintf "%s\t%s\t%s" f.rule (normalize_path f.file) f.message)
         findings)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "# lw_lint baseline: accepted findings (rule<TAB>file<TAB>message).\n\
         # Regenerate with `dune exec bin/lw_lint.exe -- --write-baseline`;\n\
         # review the diff — a new entry is a deliberate acceptance.\n";
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)
