(* Findings and the analyzer's report: human-readable for terminals,
   JSON (via [Lw_json]) for tooling and the bench harness. *)

type finding = { rule : string; file : string; line : int; message : string }

let finding rule file line message = { rule; file; line; message }

type t = {
  files_scanned : int;
  findings : finding list; (* unsuppressed, in file/line order *)
  suppressed : int; (* findings silenced by lw-lint pragmas *)
  elapsed_s : float;
}

let make ~files_scanned ~findings ~suppressed ~elapsed_s =
  let ordered =
    List.sort
      (fun a b ->
        match String.compare a.file b.file with 0 -> compare a.line b.line | c -> c)
      findings
  in
  { files_scanned; findings = ordered; suppressed; elapsed_s }

let clean t = t.findings = []

module Json = Lw_json.Json

let finding_to_json f =
  Json.Obj
    [
      ("rule", Json.String f.rule);
      ("file", Json.String f.file);
      ("line", Json.Number (float_of_int f.line));
      ("message", Json.String f.message);
    ]

let to_json t =
  Json.Obj
    [
      ("files_scanned", Json.Number (float_of_int t.files_scanned));
      ("findings", Json.List (List.map finding_to_json t.findings));
      ("finding_count", Json.Number (float_of_int (List.length t.findings)));
      ("suppressed", Json.Number (float_of_int t.suppressed));
      ("elapsed_ms", Json.Number (t.elapsed_s *. 1000.));
    ]

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.message

let to_human t =
  let buf = Buffer.create 256 in
  List.iter
    (fun f -> Buffer.add_string buf (Format.asprintf "%a\n" pp_finding f))
    t.findings;
  Buffer.add_string buf
    (Printf.sprintf
       "%d file%s scanned, %d finding%s (%d suppressed), %.1f ms\n"
       t.files_scanned
       (if t.files_scanned = 1 then "" else "s")
       (List.length t.findings)
       (if List.length t.findings = 1 then "" else "s")
       t.suppressed (t.elapsed_s *. 1000.));
  Buffer.contents buf
