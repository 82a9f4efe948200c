(* Findings and the analyzer's report: human-readable for terminals,
   JSON (via [Lw_json]) for tooling and the bench harness. *)

(* [scope] is the canonical path of the structure-level definition the
   finding sits in (the unit's own path outside any), which the baseline
   keys on; "" until the analyzer places it. *)
type finding = { rule : string; file : string; line : int; message : string; scope : string }

let finding rule file line message = { rule; file; line; message; scope = "" }

type t = {
  files_scanned : int;
  findings : finding list; (* unsuppressed, in file/line order *)
  suppressed : int; (* findings silenced by lw-lint pragmas *)
  baselined : int; (* findings accepted by the checked-in baseline *)
  elapsed_s : float;
}

let make ?(baselined = 0) ~files_scanned ~findings ~suppressed ~elapsed_s () =
  let ordered =
    List.sort
      (fun a b ->
        match String.compare a.file b.file with 0 -> compare a.line b.line | c -> c)
      findings
  in
  { files_scanned; findings = ordered; suppressed; baselined; elapsed_s }

let clean t = t.findings = []

module Json = Lw_json.Json

let finding_to_json f =
  Json.Obj
    [
      ("rule", Json.String f.rule);
      ("file", Json.String f.file);
      ("line", Json.Number (float_of_int f.line));
      ("message", Json.String f.message);
      ("scope", Json.String f.scope);
    ]

let to_json t =
  Json.Obj
    [
      ("files_scanned", Json.Number (float_of_int t.files_scanned));
      ("findings", Json.List (List.map finding_to_json t.findings));
      ("finding_count", Json.Number (float_of_int (List.length t.findings)));
      ("suppressed", Json.Number (float_of_int t.suppressed));
      ("baselined", Json.Number (float_of_int t.baselined));
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
       "%d file%s scanned, %d finding%s (%d suppressed, %d baselined), %.1f ms\n"
       t.files_scanned
       (if t.files_scanned = 1 then "" else "s")
       (List.length t.findings)
       (if List.length t.findings = 1 then "" else "s")
       t.suppressed t.baselined (t.elapsed_s *. 1000.));
  Buffer.contents buf
