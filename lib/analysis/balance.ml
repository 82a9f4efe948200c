(* Effect/resource balance: an epoch pin ([Lw_store.pin] /
   [pin_latest]) or a TCP connection ([Tcp.connect]) acquired in a
   function must, on every path, be released, handed off into a longer-
   lived structure, or protected against exceptions until it is.

   The checker linearizes the continuation after each acquire into a
   syntactic event stream: Release (unpin / .close on the bound
   variable), Handoff (the variable escapes into a constructor, record,
   tuple, mutable field, or the function's result — pure constructor
   contexts only, so passing it to an arbitrary call does not count),
   and Raiser (any other call, which may raise). Events under a
   [try]/[Fun.protect ~finally:release] cover are marked protected.

   Findings: no Release and no Handoff at all -> "never released";
   otherwise any unprotected Raiser strictly before the first
   Release/Handoff -> "may leak on raise". Path-sensitivity (a branch
   that releases on one arm only) is out of scope and documented as
   such in DESIGN.md. The resource home modules (lw_store.ml, tcp.ml)
   are exempt — they implement the lifecycle they'd otherwise trip. *)

open Typedtree

let acquire_calls =
  [
    ("Lw_store.pin", "epoch pin"); ("Lw_store.pin_latest", "epoch pin");
    ("Lw_net.Tcp.connect", "TCP connection");
  ]

(* Releases: [Lw_store.unpin], or a call or record field whose name ends
   in one of [closes] ([Tcp.shutdown], [ep.Endpoint.close ()]). *)
let closes = [ "unpin"; "close"; "shutdown"; "disconnect" ]
let exempt_basenames = [ "lw_store.ml"; "tcp.ml" ]

(* Calls assumed not to raise in a way that matters: pure projections,
   and cleanups of sibling resources. *)
let non_raising =
  [ "Stdlib.ignore"; "Stdlib.ref"; "Stdlib.!"; "Stdlib.fst"; "Stdlib.snd"; "Stdlib.not" ]

type event = Release | Handoff | Raiser of string

let last name = List.hd (List.rev (String.split_on_char '.' name))

let rec acquire_of u (e : expression) =
  match e.exp_desc with
  | Texp_apply (f, _) -> Option.bind (Front.callee u f) (fun n -> List.assoc_opt n acquire_calls)
  (* [let c = try Tcp.connect ... with ...] still binds the resource *)
  | Texp_try (b, _) | Texp_open (_, b) -> acquire_of u b
  | _ -> None

(* [x] escapes through pure constructor context only: the variable
   itself, or tuples/constructs/records/arrays built from such. *)
let rec escapes_into x (e : expression) =
  match e.exp_desc with
  | Texp_ident (Pident y, _, _) -> Ident.same x y
  | Texp_tuple es | Texp_array es | Texp_construct (_, _, es) -> List.exists (escapes_into x) es
  | Texp_variant (_, Some a) | Texp_open (_, a) | Texp_lazy a -> escapes_into x a
  | Texp_record { fields; extended_expression; _ } ->
      Array.exists (function _, Overridden (_, e) -> escapes_into x e | _ -> false) fields
      || Option.fold ~none:false ~some:(escapes_into x) extended_expression
  | _ -> false

let is_release_of u x (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_field (b, _, ld); _ }, _) ->
      (* method-style record close: [c.close ()] *)
      List.mem ld.lbl_name closes && Front.mentions x b
  | Texp_apply (f, args) -> (
      match Front.callee u f with
      | Some n ->
          List.mem (last n) closes
          && List.exists (function _, Some a -> Front.mentions x a | _ -> false) args
      | None -> false)
  | _ -> false

(* Tail expressions of a continuation: the values the function returns
   along each path. *)
let rec tails (e : expression) =
  match e.exp_desc with
  | Texp_sequence (_, b) | Texp_let (_, _, b) | Texp_open (_, b) -> tails b
  | Texp_ifthenelse (_, t, f) -> tails t @ Option.fold ~none:[] ~some:tails f
  | Texp_match (_, cases, _) -> List.concat_map (fun c -> tails c.c_rhs) cases
  | Texp_try (_, cases) -> List.concat_map (fun c -> tails c.c_rhs) cases
  | _ -> [ e ]

(* Linearize the continuation after an acquire into events, in
   syntactic order. [protected] marks regions where a raise cannot leak
   the resource (inside try-with whose body releases are still counted,
   and inside Fun.protect whose ~finally releases x). *)
let linearize u x cont =
  let events = ref [] in
  let tail_set = List.map (fun t -> t.exp_loc) (tails cont) in
  let push ev prot line = events := (ev, prot, line) :: !events in
  let rec walk prot (e : expression) =
    let line = Front.line e.exp_loc in
    if is_release_of u x e then push Release prot line
    else if List.mem e.exp_loc tail_set && escapes_into x e then push Handoff prot line
    else
      match e.exp_desc with
      | Texp_setfield (_, _, _, v) when escapes_into x v -> push Handoff prot line
      | Texp_try (b, cases) ->
          walk true b;
          List.iter (fun c -> walk prot c.c_rhs) cases
      | Texp_match (scrut, cases, _)
        when List.exists (fun c -> Option.is_some (snd (split_pattern c.c_lhs))) cases ->
          (* [match e with ... | exception _ -> ...] shields [e] *)
          walk true scrut;
          List.iter (fun c -> walk prot c.c_rhs) cases
      | Texp_apply (f, args) -> (
          let arg_exprs = List.filter_map snd args in
          match Front.callee u f with
          | Some "Stdlib.Fun.protect" ->
              let finally_releases =
                List.exists
                  (function
                    | Asttypes.Labelled "finally", Some a ->
                        let rel = ref false in
                        Front.iter_expr (fun e -> if is_release_of u x e then rel := true) a;
                        !rel
                    | _ -> false)
                  args
              in
              if finally_releases then push Release prot line;
              List.iter (walk (prot || finally_releases)) arg_exprs
          | name -> (
              walk prot f;
              List.iter (walk prot) arg_exprs;
              match (name, f.exp_desc) with
              | Some n, _ when List.mem n non_raising || List.mem (last n) closes -> ()
              (* [other.close ()]: sibling cleanup, assumed non-raising *)
              | None, Texp_field (_, _, ld) when List.mem ld.lbl_name closes -> ()
              | _ -> push (Raiser (Option.value name ~default:"<computed>")) prot line))
      | _ ->
          (* a closure mentioning x defers the work; walk it for releases
             so `~finally:(fun () -> unpin)` style code outside
             Fun.protect still counts *)
          List.iter (walk prot) (Front.children e)
  in
  walk false cont;
  List.rev !events

let check_acquire (u : Front.unit_) ~what ~line x cont findings =
  let events = linearize u x cont in
  let finding msg = findings := Report.finding "balance" u.source line msg :: !findings in
  if not (List.exists (fun (ev, _, _) -> ev = Release || ev = Handoff) events) then
    finding
      (Printf.sprintf "%s `%s` is acquired but never released or handed off" what (Ident.name x))
  else
    let rec scan = function
      | (Release, _, _) :: _ | (Handoff, _, _) :: _ -> ()
      | (Raiser fn, false, _) :: _ ->
          finding
            (Printf.sprintf
               "%s `%s` may leak if `%s` raises before the release/handoff (no Fun.protect or try \
                cover)"
               what (Ident.name x) fn)
      | _ :: rest -> scan rest
      | [] -> ()
    in
    scan events

let analyze_file (u : Front.unit_) : Report.finding list =
  if List.mem (Filename.basename u.source) exempt_basenames then []
  else begin
    let findings = ref [] in
    Front.iter_exprs
      (fun e ->
        match e.exp_desc with
        | Texp_let (_, vbs, cont) ->
            List.iter
              (fun vb ->
                match (vb.vb_pat.pat_desc, acquire_of u vb.vb_expr) with
                | Tpat_var (x, _), Some what ->
                    check_acquire u ~what ~line:(Front.line vb.vb_loc) x cont findings
                | _ -> ())
              vbs
        | Texp_match (scrut, cases, _) -> (
            (* [match pin ... with Ok snap -> ... | Error e -> ...]: only the
               payload of [Ok] or [Some] is the resource; an [Error]'s is
               the refusal *)
            match acquire_of u scrut with
            | Some what ->
                List.iter
                  (fun c ->
                    match Option.map (fun p -> p.pat_desc) (fst (split_pattern c.c_lhs)) with
                    | Some
                        (Tpat_construct
                          ( _,
                            { cstr_name = "Ok" | "Some"; _ },
                            [ { pat_desc = Tpat_var (x, _); _ } ],
                            _ ))
                      ->
                        check_acquire u ~what ~line:(Front.line scrut.exp_loc) x c.c_rhs findings
                    | _ -> ())
                  cases
            | None -> ())
        | _ -> ())
      u.str;
    List.sort_uniq compare !findings
  end
