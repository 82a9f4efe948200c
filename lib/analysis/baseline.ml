(* Checked-in lint baseline: accepted findings that must not block CI,
   stored one per line as `rule<TAB>path<TAB>count<TAB>message`. Entries
   carry no line numbers — the key is (rule, normalized path, message) —
   so the baseline survives unrelated line churn; a finding whose message
   changes is a new finding and must be fixed or re-accepted
   deliberately. An entry accepts at most [count] findings of its key, so
   one more finding with the same message is fresh, not absorbed.

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

type entry = {
  b_rule : string;
  b_file : string;
  b_count : int;
  b_message : string;
  b_line : int;
}

let key_of_finding (f : Report.finding) =
  (f.rule, normalize_path f.file, f.message)

let parse_line ?(number = 0) line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char '\t' line with
    | rule :: file :: count :: rest when rest <> [] -> (
        match int_of_string_opt count with
        | Some c when c > 0 ->
            Some
              {
                b_rule = rule;
                b_file = normalize_path file;
                b_count = c;
                b_message = String.concat "\t" rest;
                b_line = number;
              }
        | _ -> None)
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

(* Each finding, in order, takes the first entry of its key that has
   room left. Returns the findings no entry took, and each entry with
   how many it took. *)
let allocate entries findings =
  let taken = List.map (fun e -> (e, ref 0)) entries in
  let fresh =
    List.filter
      (fun f ->
        let key = key_of_finding f in
        match
          List.find_opt (fun (e, n) -> (e.b_rule, e.b_file, e.b_message) = key && !n < e.b_count) taken
        with
        | Some (_, n) ->
            incr n;
            false
        | None -> true)
      findings
  in
  (fresh, taken)

(* Split findings into (fresh, accepted-count) against the baseline. *)
let apply entries findings =
  let fresh, _ = allocate entries findings in
  (fresh, List.length findings - List.length fresh)

(* Entries the scan could have filled but did not: an entry that takes
   fewer findings than its count accepts findings that are gone, which
   would otherwise silently accept their return. [roots] are the scanned
   paths (an entry is in scope when its file is one of them or lies
   under one) and [rules] the rule names the scan ran ([None]: all of
   them). Each is a "stale-baseline" finding at its line of
   [baseline_file]. *)
let stale ~baseline_file ~roots ~rules entries findings =
  let roots = List.map normalize_path roots in
  let in_scope e =
    List.exists (fun r -> e.b_file = r || String.starts_with ~prefix:(r ^ "/") e.b_file) roots
    && match rules with None -> true | Some names -> List.mem e.b_rule names
  in
  let _, taken = allocate entries findings in
  List.filter_map
    (fun (e, n) ->
      if in_scope e && !n < e.b_count then
        Some
          {
            Report.rule = "stale-baseline";
            file = baseline_file;
            line = e.b_line;
            message =
              Printf.sprintf "baseline entry matches %d of its %d findings: %s %s: %s" !n
                e.b_count e.b_rule e.b_file e.b_message;
          }
      else None)
    taken

(* One entry per key, counting its findings. *)
let save path findings =
  let keys = List.sort compare (List.map key_of_finding findings) in
  let rec group = function
    | [] -> []
    | k :: rest ->
        let same, others = List.partition (( = ) k) rest in
        let rule, file, message = k in
        Printf.sprintf "%s\t%s\t%d\t%s" rule file (1 + List.length same) message :: group others
  in
  let lines = group keys in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "# lw_lint baseline: accepted findings (rule<TAB>file<TAB>count<TAB>message).\n\
         # Regenerate with `dune exec bin/lw_lint.exe -- --write-baseline`;\n\
         # review the diff — a new entry or a raised count is a deliberate acceptance.\n";
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)
