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

module SS = Set.Make (String)

let acquire_calls =
  [
    ("Lw_store.pin", "epoch pin"); ("Lw_store.pin_latest", "epoch pin");
    ("Snapshot.pin", "epoch pin"); ("Tcp.connect", "TCP connection");
  ]

let release_names = SS.of_list [ "Lw_store.unpin"; "Snapshot.unpin" ]
let close_segs = SS.of_list [ "close"; "shutdown"; "disconnect" ]
let exempt_basenames = [ "lw_store.ml"; "tcp.ml" ]

type event = Release | Handoff | Raiser of string

let rec acquire_of (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Syntax.head_name f with
      | Some n -> List.assoc_opt (Syntax.last2 n) acquire_calls
      | None -> None)
  (* [let c = try Tcp.connect ... with ...] still binds the resource *)
  | Pexp_try (b, _) | Pexp_constraint (b, _) | Pexp_open (_, b) ->
      acquire_of b
  | _ -> None

let mentions x e = SS.mem x (Syntax.all_idents e)

(* [x] escapes through pure constructor context only: the variable
   itself, or tuples/constructs/records/arrays built from such. *)
let rec escapes_into x (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident y; _ } -> y = x
  | Pexp_tuple es | Pexp_array es -> List.exists (escapes_into x) es
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> escapes_into x a
  | Pexp_record (fs, base) ->
      List.exists (fun (_, e) -> escapes_into x e) fs
      || (match base with Some b -> escapes_into x b | None -> false)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> escapes_into x e
  | Pexp_lazy e -> escapes_into x e
  | _ -> false

let is_release_of x (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      let arg_exprs = List.map snd args in
      match Syntax.head_name f with
      | Some n ->
          (SS.mem (Syntax.last2 n) release_names
          || Syntax.last_seg n = "unpin"
          || SS.mem (Syntax.last_seg n) close_segs)
          && List.exists (mentions x) arg_exprs
      | None -> (
          (* method-style record close: [c.close ()] *)
          match f.pexp_desc with
          | Pexp_field (b, lid) ->
              SS.mem (Syntax.last_seg (Syntax.name_of_lid lid.txt)) close_segs
              && mentions x b
          | _ -> false))
  | _ -> false

(* Tail expressions of a continuation: the values the function returns
   along each path. *)
let rec tails (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_sequence (_, b) | Pexp_let (_, _, b) -> tails b
  | Pexp_ifthenelse (_, t, f) -> (
      tails t @ match f with Some f -> tails f | None -> [])
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.concat_map (fun (c : Parsetree.case) -> tails c.pc_rhs) cases
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> tails e
  | _ -> [ e ]

(* Linearize the continuation after an acquire into events, in
   syntactic order. [protected] marks regions where a raise cannot leak
   the resource (inside try-with whose body releases are still counted,
   and inside Fun.protect whose ~finally releases x). *)
let linearize x cont =
  let events = ref [] in
  let tail_set = List.map (fun (t : Parsetree.expression) -> t.pexp_loc) (tails cont) in
  let push ev prot line = events := (ev, prot, line) :: !events in
  let rec walk prot (e : Parsetree.expression) =
    let line = Syntax.line e.pexp_loc in
    if is_release_of x e then push Release prot line
    else if List.mem e.pexp_loc tail_set && escapes_into x e then
      push Handoff prot line
    else
      match e.pexp_desc with
      | Pexp_setfield (_, _, v) when escapes_into x v -> push Handoff prot line
      | Pexp_try (b, cases) ->
          walk true b;
          List.iter (fun (c : Parsetree.case) -> walk prot c.pc_rhs) cases
      | Pexp_match (scrut, cases)
        when List.exists
               (fun (c : Parsetree.case) ->
                 match c.pc_lhs.ppat_desc with
                 | Ppat_exception _ -> true
                 | _ -> false)
               cases ->
          (* [match e with ... | exception _ -> ...] shields [e] *)
          walk true scrut;
          List.iter (fun (c : Parsetree.case) -> walk prot c.pc_rhs) cases
      | Pexp_apply (f, args) -> (
          let arg_exprs = List.map snd args in
          match Syntax.head_name f with
          | Some n when Syntax.last2 n = "Fun.protect" ->
              let finally_releases =
                List.exists
                  (fun (lbl, a) ->
                    (match lbl with
                    | Asttypes.Labelled "finally" -> true
                    | _ -> false)
                    &&
                    let rel = ref false in
                    Syntax.iter_exprs
                      (fun e -> if is_release_of x e then rel := true)
                      a;
                    !rel)
                  args
              in
              if finally_releases then push Release prot line;
              List.iter (walk (prot || finally_releases)) arg_exprs
          | Some n ->
              List.iter (walk prot) arg_exprs;
              let seg = Syntax.last_seg n in
              (* pure projections can't raise in a way that matters, and
                 cleanup calls on sibling resources (close/unpin of some
                 other handle) are assumed non-raising *)
              if
                not
                  (SS.mem seg
                     (SS.of_list
                        [ "ignore"; "ref"; "!"; "fst"; "snd"; "not" ])
                  || SS.mem seg close_segs || seg = "unpin")
              then push (Raiser n) prot line
          | None -> (
              walk prot f;
              List.iter (walk prot) arg_exprs;
              match f.pexp_desc with
              | Pexp_field (_, lid)
                when SS.mem
                       (Syntax.last_seg (Syntax.name_of_lid lid.txt))
                       close_segs ->
                  (* [other.close ()]: sibling cleanup, assumed non-raising *)
                  ()
              | _ -> push (Raiser "<computed>") prot line))
      | Pexp_fun _ | Pexp_function _ ->
          (* a closure mentioning x defers the work; if it releases x it
             was already caught by is_release_of at the Fun.protect
             site. Walk it for releases so `~finally:(fun () -> unpin)`
             style code outside Fun.protect still counts. *)
          let _, body = Syntax.uncurry e in
          walk prot body
      | _ -> List.iter (walk prot) (Syntax.shallow_children e)
  in
  walk false cont;
  List.rev !events

let check_acquire ~path ~what ~line x cont findings =
  let events = linearize x cont in
  let has_safe =
    List.exists (fun (ev, _, _) -> ev = Release || ev = Handoff) events
  in
  if not has_safe then
    findings :=
      {
        Report.rule = "balance";
        file = path;
        line;
        message =
          Printf.sprintf "%s `%s` is acquired but never released or handed off"
            what x;
      }
      :: !findings
  else begin
    let rec scan = function
      | (Release, _, _) :: _ | (Handoff, _, _) :: _ -> ()
      | (Raiser fn, false, _) :: _ ->
          findings :=
            {
              Report.rule = "balance";
              file = path;
              line;
              message =
                Printf.sprintf
                  "%s `%s` may leak if `%s` raises before the release/handoff \
                   (no Fun.protect or try cover)"
                  what x fn;
            }
            :: !findings
      | _ :: rest -> scan rest
      | [] -> ()
    in
    scan events
  end

let analyze_file ~path (ast : Parsetree.structure) : Report.finding list =
  if List.mem (Filename.basename path) exempt_basenames then []
  else begin
    let findings = ref [] in
    let seen = Hashtbl.create 16 in
    let handle_let (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_let (_, vbs, cont) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match (vb.pvb_pat.ppat_desc, acquire_of vb.pvb_expr) with
              | Ppat_var { txt = x; _ }, Some what ->
                  let line = Syntax.line vb.pvb_loc in
                  if not (Hashtbl.mem seen (x, line)) then begin
                    Hashtbl.replace seen (x, line) ();
                    check_acquire ~path ~what ~line x cont findings
                  end
              | _ -> ())
            vbs
      | Pexp_match (scrut, cases) when acquire_of scrut <> None ->
          (* [match pin ... with Ok snap -> ... | Error e -> ...]: only the
             payload of [Ok] or [Some] is the resource; an [Error]'s is
             the refusal *)
          let what = Option.get (acquire_of scrut) in
          let line = Syntax.line scrut.pexp_loc in
          List.iter
            (fun (c : Parsetree.case) ->
              match c.pc_lhs.ppat_desc with
              | Ppat_construct
                  ( { txt = Longident.(Lident ("Ok" | "Some") | Ldot (_, ("Ok" | "Some"))); _ },
                    Some (_, { ppat_desc = Ppat_var v; _ }) ) ->
                  let x = v.txt in
                  if not (Hashtbl.mem seen (x, line)) then begin
                    Hashtbl.replace seen (x, line) ();
                    check_acquire ~path ~what ~line x c.pc_rhs findings
                  end
              | _ -> ())
            cases
      | _ -> ()
    in
    Syntax.iter_structure_exprs handle_let ast;
    List.sort_uniq compare !findings
  end
