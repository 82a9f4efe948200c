(* The lint rule set. Each rule is keyed to a claim row in SECURITY.md:
   the analyzer enforces mechanically what the threat model promises in
   prose. Rules read the compiler's Parsetree of the file through one
   walk, [uses]: the names the code refers to (values, record fields,
   modules) and its applications of [=]/[<>]. None of them type the
   code, so secret-value rules are driven by explicit per-file flags:
   [(* lw-lint: secret name ... *)] marks identifiers whose timing must
   not depend on control flow. Branches on those names are the taint
   analysis's to report ([Taint]'s branch sink). *)

type context = {
  path : string; (* as given on the command line / in tests *)
  path_segments : string list;
  basename : string;
  secrets : (string, unit) Hashtbl.t; (* from "lw-lint: secret" pragmas *)
}

(* A name the code refers to: a value ("String.equal"), a record field
   with the path it is read through ("ep.Lw_net.Endpoint.recv"), or a
   module ("Random" in [open Random]). *)
type name_use = { name : string; line : int }

(* An application of polymorphic [=]/[<>] (bare or [Stdlib.]), partial
   ones included, with its unlabelled arguments; [line] is the
   operator's. *)
type equality = { operands : Parsetree.expression list; line : int }

type uses = { names : name_use list; equalities : equality list }

(* [e] as a dotted name, through record fields: [k.cond] is "k.cond". *)
let rec dotted (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident l -> Some (Syntax.name_of_lid l.txt)
  | Pexp_field (r, f) ->
      Option.map (fun base -> base ^ "." ^ Syntax.name_of_lid f.txt) (dotted r)
  | _ -> None

let uses_of (str : Parsetree.structure) =
  let names = ref [] and equalities = ref [] in
  let use name (loc : Location.t) = names := { name; line = Syntax.line loc } :: !names in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident l -> use (Syntax.name_of_lid l.txt) e.pexp_loc
    | Pexp_field (_, f) ->
        use (Option.value (dotted e) ~default:(Syntax.name_of_lid f.txt)) e.pexp_loc
    | Pexp_apply (({ pexp_desc = Pexp_ident l; _ } as f), args) -> (
        match Syntax.name_of_lid l.txt with
        | "=" | "<>" | "Stdlib.=" | "Stdlib.<>" ->
            equalities :=
              {
                operands =
                  List.filter_map
                    (fun (label, a) -> if label = Asttypes.Nolabel then Some a else None)
                    args;
                line = Syntax.line f.pexp_loc;
              }
              :: !equalities
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let module_expr self (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident l -> use (Syntax.name_of_lid l.txt) l.loc
    | _ -> ());
    Ast_iterator.default_iterator.module_expr self m
  in
  let it = { Ast_iterator.default_iterator with expr; module_expr } in
  it.structure it str;
  { names = List.rev !names; equalities = List.rev !equalities }

type t = {
  name : string;
  doc : string;
  applies : context -> bool;
  check : context -> uses -> Report.finding list;
}

let has_segment ctx s = List.mem s ctx.path_segments
let in_lib ctx = has_segment ctx "lib"

let in_sensitive ctx =
  in_lib ctx && (has_segment ctx "crypto" || has_segment ctx "dpf" || has_segment ctx "oram")

(* A name is secret-flagged when its full dotted name or any component
   is flagged, so [k.cond] trips a flag on [cond]. *)
let is_secret ctx name =
  Hashtbl.mem ctx.secrets name
  || List.exists (Hashtbl.mem ctx.secrets) (String.split_on_char '.' name)

let finding ctx rule line message = { Report.rule; file = ctx.path; line; message }

let matches_any name ~exact ~prefixes =
  List.mem name exact || List.exists (fun p -> String.starts_with ~prefix:p name) prefixes

(* Generic "these names are banned here" check. *)
let banned_names ~exact ~prefixes ~msg rule_name ctx uses =
  List.filter_map
    (fun { name; line } ->
      if matches_any name ~exact ~prefixes then Some (finding ctx rule_name line (msg name))
      else None)
    uses.names

(* The [=]/[<>] applications with an operand [pick] names. A type
   constraint on the operand, [(None : int option)], is seen through. *)
let equality_check ~pick ~msg rule_name ctx uses =
  let rec strip (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip e
    | _ -> e
  in
  List.filter_map
    (fun { operands; line } ->
      List.find_map (fun e -> pick ctx (strip e)) operands
      |> Option.map (fun n -> finding ctx rule_name line (msg n)))
    uses.equalities

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
      (fun ctx uses ->
        banned_names ~exact:variable_time_compares ~prefixes:[]
          ~msg:(fun name ->
            Printf.sprintf
              "variable-time comparison %s in a constant-time module; use Ct.equal" name)
          "ct-equality" ctx uses
        (* polymorphic =/<> on a secret-flagged name: without types the
           rule cannot judge arbitrary operands, but it sees a flagged
           name handed to the operator *)
        @ equality_check
            ~pick:(fun ctx e ->
              Option.bind (dotted e) (fun n -> if is_secret ctx n then Some n else None))
            ~msg:(fun n ->
              Printf.sprintf "polymorphic comparison on secret-flagged %S; use Ct.equal" n)
            "ct-equality" ctx uses);
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
   tests, typed [equal] functions otherwise. Without types the rule
   flags the two shapes that cover the bug class: a bare polymorphic
   [compare], and [=]/[<>] applied to a [None]/[Some] constructor. *)
let poly_compare =
  {
    name = "poly-compare";
    doc =
      "lib/{pir,store} must not use polymorphic compare or =/<> against \
       None/Some: use Option.is_none/is_some or a typed equal";
    applies = (fun ctx -> in_lib ctx && (has_segment ctx "pir" || has_segment ctx "store"));
    check =
      (fun ctx uses ->
        banned_names ~exact:[ "compare"; "Stdlib.compare" ] ~prefixes:[]
          ~msg:(fun name ->
            Printf.sprintf "polymorphic %s in a store module; use a typed compare function"
              name)
          "poly-compare" ctx uses
        @ equality_check
            ~pick:(fun _ (e : Parsetree.expression) ->
              match e.pexp_desc with
              | Pexp_construct (c, _) -> (
                  match Syntax.last_seg (Syntax.name_of_lid c.txt) with
                  | ("None" | "Some") as n -> Some n
                  | _ -> None)
              | _ -> None)
            ~msg:(fun n ->
              Printf.sprintf
                "polymorphic comparison against %s; use Option.is_none/Option.is_some" n)
            "poly-compare" ctx uses);
  }

(* ------------------------------------------------------------------ *)
(* Rule 2: determinism in lib/.                                        *)
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
      banned_names
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
(* Rule 2b: all wall-clock reads go through the observability clock.   *)
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
      banned_names
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
(* Rule 3: no printing from crypto modules.                            *)
(* ------------------------------------------------------------------ *)

let key_print =
  {
    name = "key-print";
    doc =
      "crypto modules must not write to the console: the only strings they hold \
       are keys and plaintext (pure sprintf is fine)";
    applies = (fun ctx -> in_lib ctx && has_segment ctx "crypto");
    check =
      banned_names
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
(* Rule 4: graceful degradation on server request paths.               *)
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
      banned_names
        ~exact:[ "failwith"; "Stdlib.failwith"; "exit"; "Stdlib.exit" ]
        ~prefixes:[]
        ~msg:(fun name ->
          Printf.sprintf "%s on a server request path; return a typed error" name)
        "server-abort";
  }

(* ------------------------------------------------------------------ *)
(* Rule 5: no unbounded waits on protocol request paths.               *)
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
      (fun ctx uses ->
        List.filter_map
          (fun { name; line } ->
            if
              matches_any name
                ~exact:[ "Unix.sleep"; "Unix.sleepf"; "Thread.delay"; "Unix.select" ]
                ~prefixes:[]
            then
              Some
                (finding ctx "unbounded-wait" line
                   (Printf.sprintf
                      "bare wait %s on a request path; route sleeps through Clock" name))
            else
              match List.rev (String.split_on_char '.' name) with
              | "recv" :: _ :: _ ->
                  Some
                    (finding ctx "unbounded-wait" line
                       (Printf.sprintf
                          "endpoint receive %s without a visible deadline; ensure the \
                           transport enforces one or waive explicitly"
                          name))
              | _ -> None)
          uses.names);
  }

(* ------------------------------------------------------------------ *)
(* Rule 6: process management is the cluster supervisor's monopoly.    *)
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
      banned_names
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
    ct_equality; poly_compare; nondeterminism; raw_timestamp; key_print; server_abort;
    unbounded_wait; process_hygiene;
  ]

let by_name name = List.find_opt (fun r -> r.name = name) all
