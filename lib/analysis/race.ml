(* Race lint: mutable state captured by a closure passed to
   [Domain.spawn] must be guarded. The ROADMAP's next frontier is
   Domain-parallel shard scans; this analysis stands guard so shared
   scan state grown for that work is either [Atomic], under a [Mutex],
   or flagged.

   Shape: collect the file's let-bound mutable carriers (refs, arrays,
   bytes, hash tables, buffers — classified by the RHS constructor) and
   the file's let-bound closures, then for every [Domain.spawn f] (or
   [Server.run_workers n f], the serving path's worker entry) resolve [f]
   to a body and walk it. Any read/write of a captured
   mutable binding that is not under a [Mutex.protect]/[with_lock]
   region (or between [Mutex.lock]/[unlock] in a sequence) is a
   finding. [Atomic.t] and [Mutex.t] bindings are safe by
   construction. Reads of array/bytes contents are treated like writes:
   under domains an unsynchronised read racing a write is still a data
   race in the OCaml memory model. *)

module SS = Set.Make (String)

(* RHS constructor -> what kind of mutable carrier the binding is.
   [None] = not mutable (or safely shareable). *)
let classify_rhs (e : Parsetree.expression) =
  let named n =
    let l2 = Syntax.last2 n in
    match l2 with
    | "ref" -> Some "ref cell"
    | "Array.make" | "Array.init" | "Array.create_float" | "Array.copy"
    | "Array.sub" | "Array.of_list" | "Array.append" ->
        Some "array"
    | "Bytes.create" | "Bytes.make" | "Bytes.of_string" | "Bytes.copy"
    | "Bytes.sub" ->
        Some "bytes buffer"
    | "Hashtbl.create" -> Some "hash table"
    | "Buffer.create" -> Some "buffer"
    | "Queue.create" | "Stack.create" -> Some "queue/stack"
    | "Atomic.make" | "Mutex.create" | "Semaphore.make" | "Domain.spawn" ->
        None
    | _ -> None
  in
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Syntax.head_name f with Some n -> named n | None -> None)
  | Pexp_array _ -> Some "array"
  | _ -> None

let is_safe_rhs (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match Syntax.head_name f with
      | Some n -> (
          match Syntax.last2 n with
          | "Atomic.make" | "Mutex.create" | "Semaphore.make" -> true
          | _ -> false)
      | None -> false)
  | _ -> false

(* Calls that mutate (or read mutable contents of) their container
   argument: last2 name -> container position. *)
let access_calls =
  [
    ("Array.get", 0); ("Array.unsafe_get", 0); ("Array.set", 0);
    ("Array.unsafe_set", 0); ("Bytes.get", 0); ("Bytes.unsafe_get", 0);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.blit", 0);
    ("Bytes.blit", 2); ("Bytes.blit_string", 2); ("Bytes.fill", 0);
    ("Array.blit", 0); ("Array.blit", 2); ("Hashtbl.add", 0);
    ("Hashtbl.replace", 0); ("Hashtbl.remove", 0); ("Hashtbl.find", 0);
    ("Hashtbl.find_opt", 0); ("Hashtbl.mem", 0); ("Hashtbl.clear", 0);
    ("Hashtbl.reset", 0); ("Buffer.add_string", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_char", 0); ("Buffer.contents", 0); ("Buffer.clear", 0);
    ("Queue.push", 1); ("Queue.add", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Stack.push", 1); ("Stack.pop", 0);
  ]

let guard_calls = [ "Mutex.protect"; "Mutex.with_lock" ]

type binding_info = { b_desc : string; b_line : int }

let analyze_file ~path (ast : Parsetree.structure) : Report.finding list =
  let mutables : (string, binding_info) Hashtbl.t = Hashtbl.create 32 in
  let safe : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let closures : (string, Parsetree.expression) Hashtbl.t = Hashtbl.create 32 in
  (* Pass 1: index every let binding in the file (any scope — name
     collisions across scopes can only over-approximate). *)
  let index_binding (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = x; _ } -> (
        if is_safe_rhs vb.pvb_expr then Hashtbl.replace safe x ()
        else
          match classify_rhs vb.pvb_expr with
          | Some desc ->
              Hashtbl.replace mutables x
                { b_desc = desc; b_line = Syntax.line vb.pvb_loc }
          | None -> (
              match Syntax.uncurry vb.pvb_expr with
              | params, _ when params <> [] ->
                  Hashtbl.replace closures x vb.pvb_expr
              | _ -> ()))
    | _ -> ()
  in
  let index_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_let (_, vbs, _) -> List.iter index_binding vbs
    | _ -> ()
  in
  Syntax.iter_structure_exprs index_expr ast;
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter index_binding vbs
      | _ -> ())
    ast;
  (* Pass 2: find Domain.spawn call sites and walk the spawned body. *)
  let findings = ref [] in
  let report var info line =
    findings :=
      {
        Report.rule = "race";
        file = path;
        line;
        message =
          Printf.sprintf
            "mutable %s `%s` is accessed from a Domain.spawn closure without \
             an Atomic/Mutex guard"
            info.b_desc var;
      }
      :: !findings
  in
  let check_spawned_body body =
    (* names the closure captures (not rebound inside it) that alias a
       known mutable binding *)
    let captured = Syntax.free_idents body in
    let candidate x =
      (not (Hashtbl.mem safe x)) && Hashtbl.mem mutables x && SS.mem x captured
    in
    let hit x line =
      if candidate x then report x (Hashtbl.find mutables x) line
    in
    let rec walk guarded (e : Parsetree.expression) =
      let line = Syntax.line e.pexp_loc in
      match e.pexp_desc with
      | Pexp_apply (f, args) -> (
          let arg_exprs = List.map snd args in
          match Syntax.head_name f with
          | Some n when List.mem (Syntax.last2 n) guard_calls ->
              (* everything under Mutex.protect/with_lock is guarded *)
              List.iter (walk true) arg_exprs
          | Some n -> (
              let l2 = Syntax.last2 n in
              (if not guarded then
                 match n with
                 | "!" | ":=" | "incr" | "decr" -> (
                     match arg_exprs with
                     | lhs :: _ -> (
                         match Syntax.head_name lhs with
                         | Some x when not (String.contains x '.') ->
                             hit x line
                         | _ -> ())
                     | [] -> ())
                 | _ ->
                     List.iter
                       (fun (name, pos) ->
                         if name = l2 then
                           match List.nth_opt arg_exprs pos with
                           | Some ce -> (
                               match Syntax.head_name ce with
                               | Some x when not (String.contains x '.') ->
                                   hit x line
                               | _ -> ())
                           | None -> ())
                       access_calls);
              List.iter (walk guarded) arg_exprs)
          | None ->
              walk guarded f;
              List.iter (walk guarded) arg_exprs)
      | Pexp_sequence _ ->
          (* scan the sequence spine for Mutex.lock/unlock bracketing *)
          let rec spine g (e : Parsetree.expression) =
            match e.pexp_desc with
            | Pexp_sequence (a, b) ->
                let g' = step g a in
                spine g' b
            | _ -> ignore (step g e)
          and step g (a : Parsetree.expression) =
            match a.pexp_desc with
            | Pexp_apply (f, _) -> (
                match Syntax.head_name f with
                | Some n when Syntax.last2 n = "Mutex.lock" ->
                    walk g a;
                    true
                | Some n when Syntax.last2 n = "Mutex.unlock" ->
                    walk g a;
                    false
                | _ ->
                    walk (guarded || g) a;
                    g)
            | _ ->
                walk (guarded || g) a;
                g
          in
          spine false e
      | _ -> List.iter (walk guarded) (Syntax.shallow_children e)
    in
    walk false body
  in
  (* The body a spawned closure runs: a lambda, a let-bound closure of
     this file, or a partial application of one ([worker w]). *)
  let rec spawned_body (arg : Parsetree.expression) =
    match (Syntax.uncurry arg, arg.pexp_desc) with
    | (_ :: _, body), _ -> Some body
    | ([], _), Pexp_apply (f, _) -> spawned_body f
    | ([], _), _ -> (
        match Syntax.head_name arg with
        | Some x -> Option.map (fun fn -> snd (Syntax.uncurry fn)) (Hashtbl.find_opt closures x)
        | None -> None)
  in
  (* Spawn entries and the argument holding the closure they run on
     other domains: [Domain.spawn f], and the serving path's worker entry
     [Server.run_workers n f]. *)
  let spawned_arg name args =
    match (Syntax.last2 name, args) with
    | "Domain.spawn", (_, arg) :: _ -> Some arg
    | ("run_workers" | "Server.run_workers"), _ :: _ -> Some (snd (List.hd (List.rev args)))
    | _ -> None
  in
  Syntax.iter_structure_exprs
    (fun (e : Parsetree.expression) ->
      match e.pexp_desc with
      | Pexp_apply (f, args) -> (
          match Option.bind (Syntax.head_name f) (fun n -> spawned_arg n args) with
          | Some arg -> Option.iter check_spawned_body (spawned_body arg)
          | None -> ())
      | _ -> ())
    ast;
  List.sort_uniq compare !findings
