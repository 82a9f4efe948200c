(* The lint rule set. Each rule is keyed to a claim row in SECURITY.md:
   the analyzer enforces mechanically what the threat model promises in
   prose. Rules work on the token stream from [Lexer]; none of them
   parse types, so secret-value rules are driven by explicit per-file
   flags: [(* lw-lint: secret name ... *)] marks identifiers whose
   timing must not depend on control flow. *)

type context = {
  path : string; (* as given on the command line / in tests *)
  path_segments : string list;
  basename : string;
  secrets : (string, unit) Hashtbl.t; (* from "lw-lint: secret" pragmas *)
}

type t = {
  name : string;
  doc : string;
  applies : context -> bool;
  check : context -> Lexer.token array -> Report.finding list;
}

let has_segment ctx s = List.mem s ctx.path_segments
let in_lib ctx = has_segment ctx "lib"

let in_sensitive ctx =
  in_lib ctx && (has_segment ctx "crypto" || has_segment ctx "dpf" || has_segment ctx "oram")

(* An identifier is secret-flagged when its full dotted name or any
   component is flagged, so [k.cond] trips a flag on [cond]. *)
let is_secret ctx name =
  Hashtbl.mem ctx.secrets name
  || List.exists (Hashtbl.mem ctx.secrets) (Lexer.segments name)

let finding ctx rule line message = { Report.rule; file = ctx.path; line; message }

let matches_any name ~exact ~prefixes =
  List.mem name exact || List.exists (fun p -> String.starts_with ~prefix:p name) prefixes

(* Generic "these identifiers are banned here" scan. *)
let banned_ident_check ~exact ~prefixes ~msg rule_name ctx tokens =
  Array.to_list tokens
  |> List.filter_map (fun { Lexer.kind; line } ->
         match kind with
         | Lexer.Ident name when matches_any name ~exact ~prefixes ->
             Some (finding ctx rule_name line (msg name))
         | _ -> None)

(* [let x = ...] and record fields ([{ f = ...; g = ... }], [{ r with
   f = ... }]) are binders, not comparisons — walk back over the binding
   head (identifiers, literals, label punctuation) to tell an [=] used
   for binding from one used as an operator. *)
let is_binder tokens i =
  let rec back j =
    if j < 0 || i - j > 40 then false
    else
      match tokens.(j).Lexer.kind with
      | Lexer.Keyword ("let" | "and" | "rec" | "val" | "external" | "method"
                      | "type" | "module" | "with") ->
          true
      | Lexer.Op ("{" | ";") -> true
      | Lexer.Ident _ | Lexer.Num | Lexer.Str | Lexer.Chr | Lexer.Comment _
      | Lexer.Op (":" | "," | "~" | "?" | "." | "*") ->
          back (j - 1)
      | _ -> false
  in
  back (i - 1)

(* ------------------------------------------------------------------ *)
(* Rule 1: constant-time comparisons in crypto/dpf/oram.               *)
(* ------------------------------------------------------------------ *)

let variable_time_compares =
  [
    "String.equal"; "Bytes.equal"; "String.compare"; "Bytes.compare";
    "Stdlib.compare"; "compare"; "Digest.equal"; "Digest.compare";
  ]

let ct_equality =
  {
    name = "ct-equality";
    doc =
      "lib/{crypto,dpf,oram} must compare with Ct.equal: library equality \
       short-circuits on the first differing byte";
    applies = in_sensitive;
    check =
      (fun ctx tokens ->
        let named =
          banned_ident_check ~exact:variable_time_compares ~prefixes:[]
            ~msg:(fun name ->
              Printf.sprintf
                "variable-time comparison %s in a constant-time module; use Ct.equal"
                name)
            "ct-equality" ctx tokens
        in
        (* polymorphic =/<> on a secret-flagged identifier: a token-level
           scanner cannot type arbitrary operands, but it can see a flagged
           name right next to the operator. *)
        let ops = ref [] in
        Array.iteri
          (fun i { Lexer.kind; line } ->
            match kind with
            | Lexer.Op ("=" | "<>") when not (is_binder tokens i) ->
                let neighbor j =
                  if j >= 0 && j < Array.length tokens then
                    match tokens.(j).Lexer.kind with
                    | Lexer.Ident n when is_secret ctx n -> Some n
                    | _ -> None
                  else None
                in
                (match (neighbor (i - 1), neighbor (i + 1)) with
                | Some n, _ | None, Some n ->
                    ops :=
                      finding ctx "ct-equality" line
                        (Printf.sprintf
                           "polymorphic comparison on secret-flagged %S; use Ct.equal" n)
                      :: !ops
                | None, None -> ())
            | _ -> ())
          tokens;
        named @ List.rev !ops);
  }

(* ------------------------------------------------------------------ *)
(* Rule 1b: no polymorphic compare on structured data in the stores.   *)
(* ------------------------------------------------------------------ *)

(* Born from a real bug: [Lw_pir.Store.insert] tested a lookup result
   with [prior = None], i.e. polymorphic equality on an option. That
   works until the payload type grows something incomparable (a closure,
   an abstract block) or gets expensive to deep-compare — exactly what
   happened when buckets moved behind the epoch engine. In lib/pir and
   lib/store the rule is: [Option.is_none]/[Option.is_some] for option
   tests, typed [equal] functions otherwise. A token scanner cannot see
   types, so it flags the two shapes that cover the bug class: a bare
   polymorphic [compare], and [=]/[<>] with a [None]/[Some] constructor
   on either side. *)
let poly_compare =
  {
    name = "poly-compare";
    doc =
      "lib/{pir,store} must not use polymorphic compare or =/<> against \
       None/Some: use Option.is_none/is_some or a typed equal";
    applies = (fun ctx -> in_lib ctx && (has_segment ctx "pir" || has_segment ctx "store"));
    check =
      (fun ctx tokens ->
        let named =
          banned_ident_check ~exact:[ "compare"; "Stdlib.compare" ] ~prefixes:[]
            ~msg:(fun name ->
              Printf.sprintf
                "polymorphic %s in a store module; use a typed compare function" name)
            "poly-compare" ctx tokens
        in
        let out = ref [] in
        Array.iteri
          (fun i { Lexer.kind; line } ->
            match kind with
            | Lexer.Op ("=" | "<>") when not (is_binder tokens i) ->
                let constructor j =
                  if j >= 0 && j < Array.length tokens then
                    match tokens.(j).Lexer.kind with
                    | Lexer.Ident (("None" | "Some") as n) -> Some n
                    | _ -> None
                  else None
                in
                (match (constructor (i - 1), constructor (i + 1)) with
                | Some n, _ | None, Some n ->
                    out :=
                      finding ctx "poly-compare" line
                        (Printf.sprintf
                           "polymorphic comparison against %s; use \
                            Option.is_none/Option.is_some"
                           n)
                      :: !out
                | None, None -> ())
            | _ -> ())
          tokens;
        named @ List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* Rule 2: no secret-dependent branching.                              *)
(* ------------------------------------------------------------------ *)

(* Collect the condition span of an [if]/[match] starting at index [i]:
   tokens up to the matching [then]/[with], counting nested openers so an
   inner if consumes its own closer. *)
let condition_span tokens i opener closer =
  let n = Array.length tokens in
  let stop = min n (i + 2000) in
  let rec go j pending acc =
    if j >= stop then List.rev acc
    else
      match tokens.(j).Lexer.kind with
      | Lexer.Keyword k when k = opener -> go (j + 1) (pending + 1) acc
      | Lexer.Keyword k when k = closer ->
          if pending = 1 then List.rev acc else go (j + 1) (pending - 1) acc
      | _ -> go (j + 1) pending (tokens.(j) :: acc)
  in
  go (i + 1) 1 []

let secret_branch =
  {
    name = "secret-branch";
    doc =
      "no if/match on secret-flagged values: branch direction is visible to a \
       timing/trace adversary";
    (* fires only where a file flags secrets, so it costs nothing elsewhere *)
    applies = (fun ctx -> Hashtbl.length ctx.secrets > 0);
    check =
      (fun ctx tokens ->
        let out = ref [] in
        Array.iteri
          (fun i { Lexer.kind; line } ->
            let scan opener closer construct =
              let span = condition_span tokens i opener closer in
              let hits =
                List.filter_map
                  (fun t ->
                    match t.Lexer.kind with
                    | Lexer.Ident n when is_secret ctx n -> Some n
                    | _ -> None)
                  span
              in
              match hits with
              | [] -> ()
              | n :: _ ->
                  out :=
                    finding ctx "secret-branch" line
                      (Printf.sprintf "%s scrutinises secret-flagged %S" construct n)
                    :: !out
            in
            match kind with
            | Lexer.Keyword "if" -> scan "if" "then" "if-condition"
            | Lexer.Keyword "match" -> scan "match" "with" "match-scrutinee"
            | _ -> ())
          tokens;
        List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* Rule 3: determinism in lib/.                                        *)
(* ------------------------------------------------------------------ *)

let nondeterminism =
  {
    name = "nondeterminism";
    doc =
      "lib/ code must draw randomness/time through Det_rng or Drbg so behaviour \
       is reproducible and auditable";
    applies =
      (fun ctx ->
        in_lib ctx && ctx.basename <> "det_rng.ml" && ctx.basename <> "drbg.ml");
    check =
      banned_ident_check
        ~exact:
          [
            "Random"; "Unix.time"; "Unix.gettimeofday"; "Sys.time"; "Unix.gmtime";
            "Unix.localtime";
          ]
        ~prefixes:[ "Random."; "Stdlib.Random." ]
        ~msg:(fun name ->
          Printf.sprintf "nondeterministic source %s; route through Det_rng/Drbg" name)
        "nondeterminism";
  }

(* ------------------------------------------------------------------ *)
(* Rule 3b: all wall-clock reads go through the observability clock.   *)
(* ------------------------------------------------------------------ *)

(* Stricter cousin of [nondeterminism], born with lw_obs: inside lib/
   the only legitimate wall-clock reader is [Lw_obs.Clock.real] (plus
   the system-entropy seeding in drbg.ml and the deterministic RNG),
   so telemetry cannot fork timing behaviour away from the virtual
   clocks that tests and the chaos harness install. Unlike the pragma
   sprinkle this replaced, an exemption here is structural (the obs
   layer itself), not per-call-site. *)
let raw_timestamp =
  {
    name = "raw-timestamp";
    doc =
      "lib/ code must read time via Lw_obs.Clock (Span.clock ()); raw \
       Unix.gettimeofday is reserved to lib/obs so virtual clocks stay in \
       charge everywhere else";
    applies =
      (fun ctx ->
        in_lib ctx && not (has_segment ctx "obs")
        && ctx.basename <> "det_rng.ml" && ctx.basename <> "drbg.ml");
    check =
      banned_ident_check
        ~exact:[ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]
        ~prefixes:[]
        ~msg:(fun name ->
          Printf.sprintf
            "raw timestamp %s; use Lw_obs.Clock.now (Lw_obs.Span.clock ()) so \
             virtual clocks drive it in tests"
            name)
        "raw-timestamp";
  }

(* ------------------------------------------------------------------ *)
(* Rule 4: no printing from crypto modules.                            *)
(* ------------------------------------------------------------------ *)

let key_print =
  {
    name = "key-print";
    doc =
      "crypto modules must not write to the console: the only strings they hold \
       are keys and plaintext (pure sprintf is fine)";
    applies = (fun ctx -> in_lib ctx && has_segment ctx "crypto");
    check =
      banned_ident_check
        ~exact:
          [
            "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
            "print_string"; "print_endline"; "print_newline"; "print_char";
            "print_bytes"; "print_int"; "print_float"; "prerr_string";
            "prerr_endline"; "prerr_newline";
          ]
        ~prefixes:[]
        ~msg:(fun name -> Printf.sprintf "console output %s from a crypto module" name)
        "key-print";
  }

(* ------------------------------------------------------------------ *)
(* Rule 5: graceful degradation on server request paths.               *)
(* ------------------------------------------------------------------ *)

let server_request_files =
  [ "server.ml"; "zltp_server.ml"; "zltp_frontend.ml"; "endpoint.ml" ]

let server_abort =
  {
    name = "server-abort";
    doc =
      "server request paths answer bad input with typed errors, never failwith/exit: \
       one hostile query must not take the process down";
    applies = (fun ctx -> List.mem ctx.basename server_request_files);
    check =
      banned_ident_check
        ~exact:[ "failwith"; "Stdlib.failwith"; "exit"; "Stdlib.exit" ]
        ~prefixes:[]
        ~msg:(fun name ->
          Printf.sprintf "%s on a server request path; return a typed error" name)
        "server-abort";
  }

(* ------------------------------------------------------------------ *)
(* Rule 6: no unbounded waits on protocol request paths.               *)
(* ------------------------------------------------------------------ *)

(* A request path that can block forever turns one lost message into a
   hung client (or a leaked server thread). Sleeps must go through the
   Clock abstraction (virtual in tests, jittered-backoff in the client)
   and every endpoint [recv] must either run under a transport deadline
   or carry an explicit [lw-lint: allow unbounded-wait] waiver stating
   why blocking is correct there. *)
let unbounded_wait =
  {
    name = "unbounded-wait";
    doc =
      "lib/core request paths must not block forever: no bare \
       Unix.sleep/Thread.delay, and every endpoint recv needs a deadline \
       or an explicit waiver";
    applies = (fun ctx -> in_lib ctx && has_segment ctx "core");
    check =
      (fun ctx tokens ->
        Array.to_list tokens
        |> List.filter_map (fun { Lexer.kind; line } ->
               match kind with
               | Lexer.Ident name
                 when matches_any name
                        ~exact:
                          [ "Unix.sleep"; "Unix.sleepf"; "Thread.delay"; "Unix.select" ]
                        ~prefixes:[] ->
                   Some
                     (finding ctx "unbounded-wait" line
                        (Printf.sprintf
                           "bare wait %s on a request path; route sleeps through Clock"
                           name))
               | Lexer.Ident name
                 when (match List.rev (Lexer.segments name) with
                      | "recv" :: _ :: _ -> true
                      | _ -> false) ->
                   Some
                     (finding ctx "unbounded-wait" line
                        (Printf.sprintf
                           "endpoint receive %s without a visible deadline; ensure the \
                            transport enforces one or waive explicitly"
                           name))
               | _ -> None));
  }

(* ------------------------------------------------------------------ *)
(* Rule 7: process management is the cluster supervisor's monopoly.    *)
(* ------------------------------------------------------------------ *)

(* Spawning, reaping and signalling OS processes carries the same
   footgun profile as raw timestamps: done ad hoc it forks zombies,
   races waitpid against other reapers, and bypasses the restart /
   circuit-breaker bookkeeping the supervisor maintains. So, mirroring
   [raw-timestamp]'s "only lib/obs reads the wall clock", only
   lib/cluster may touch the process API — everything else asks the
   supervisor. *)
let process_hygiene =
  {
    name = "process-hygiene";
    doc =
      "process lifecycle calls (create_process/fork/waitpid/kill/...) are \
       reserved to lib/cluster: the supervisor owns spawning, reaping and \
       signalling so restarts and crash-loop accounting stay coherent";
    applies = (fun ctx -> not (has_segment ctx "cluster"));
    check =
      banned_ident_check
        ~exact:
          [
            "Unix.fork"; "Unix.wait"; "Unix.waitpid"; "Unix.kill"; "Unix.system";
            "Sys.command";
          ]
        ~prefixes:[ "Unix.create_process"; "Unix.execv"; "Unix.open_process" ]
        ~msg:(fun name ->
          Printf.sprintf
            "process management call %s outside lib/cluster; route process \
             lifecycle through the cluster supervisor"
            name)
        "process-hygiene";
  }

let all =
  [
    ct_equality; poly_compare; secret_branch; nondeterminism; raw_timestamp; key_print;
    server_abort; unbounded_wait; process_hygiene;
  ]

let by_name name = List.find_opt (fun r -> r.name = name) all
