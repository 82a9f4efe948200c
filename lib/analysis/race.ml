(* Race lint: mutable state captured by a closure passed to
   [Domain.spawn] must be guarded. Nothing in lib/ spawns a domain
   today (every scan runs on the calling domain); this analysis stands
   guard so shared state grown for a future worker pool is either
   [Atomic], under a [Mutex], or flagged.

   Shape: collect the file's let-bound mutable carriers (refs, arrays,
   bytes, hash tables, buffers — classified by the RHS constructor) and
   the file's let-bound closures, then for every [Domain.spawn f] resolve
   [f] to a body and walk it. Any read/write of a captured
   mutable binding that is not under a [Mutex.protect]
   region (or between [Mutex.lock]/[unlock] in a sequence) is a
   finding. [Atomic.t] and [Mutex.t] bindings are never carriers.
   Reads of array/bytes contents are treated like writes: under domains
   an unsynchronised read racing a write is still a data race in the
   OCaml memory model. Bindings are [Ident.t]s, so a carrier bound
   inside the spawned closure is its own, not a capture. *)

open Typedtree

(* RHS constructor -> what kind of mutable carrier the binding is.
   [None] = not mutable (or safely shareable). *)
let carrier u (e : expression) =
  match e.exp_desc with
  | Texp_array _ -> Some "array"
  | Texp_apply (f, _) -> (
      match Front.callee u f with
      | Some "Stdlib.ref" -> Some "ref cell"
      | Some
          ( "Stdlib.Array.make" | "Stdlib.Array.init" | "Stdlib.Array.create_float"
          | "Stdlib.Array.copy" | "Stdlib.Array.sub" | "Stdlib.Array.of_list"
          | "Stdlib.Array.append"
            ) ->
          Some "array"
      | Some
          ( "Stdlib.Bytes.create" | "Stdlib.Bytes.make" | "Stdlib.Bytes.of_string"
          | "Stdlib.Bytes.copy"
          | "Stdlib.Bytes.sub" ) ->
          Some "bytes buffer"
      | Some "Stdlib.Hashtbl.create" -> Some "hash table"
      | Some "Stdlib.Buffer.create" -> Some "buffer"
      | Some ("Stdlib.Queue.create" | "Stdlib.Stack.create") -> Some "queue/stack"
      | _ -> None)
  | _ -> None

(* Calls that mutate (or read mutable contents of) their container
   argument: name -> container position. *)
let access_calls =
  List.map
    (fun (n, p) -> ("Stdlib." ^ n, p))
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
      ("Stack.push", 1); ("Stack.pop", 0); ("!", 0); (":=", 0); ("incr", 0); ("decr", 0);
    ]

let analyze_file (u : Front.unit_) : Report.finding list =
  let mutables = Ident.Tbl.create 32 and closures = Ident.Tbl.create 32 in
  (* Pass 1: index every let binding in the file, at any depth. *)
  let index_binding vb =
    match vb.vb_pat.pat_desc with
    | Tpat_var (x, _) -> (
        match (carrier u vb.vb_expr, vb.vb_expr.exp_desc) with
        | Some desc, _ -> Ident.Tbl.replace mutables x desc
        | None, Texp_function _ -> Ident.Tbl.replace closures x vb.vb_expr
        | None, _ -> ())
    | _ -> ()
  in
  Front.iter_exprs
    (fun e -> match e.exp_desc with Texp_let (_, vbs, _) -> List.iter index_binding vbs | _ -> ())
    u.str;
  List.iter
    (fun si -> match si.str_desc with Tstr_value (_, vbs) -> List.iter index_binding vbs | _ -> ())
    u.str.str_items;
  (* Pass 2: find the spawn sites and walk the spawned body. *)
  let findings = ref [] in
  let check_spawned_body body =
    (* the closure's own bindings are not captures *)
    let own = Ident.Tbl.create 8 in
    Front.iter_expr
      (fun e ->
        match e.exp_desc with
        | Texp_let (_, vbs, _) ->
            List.iter (fun x -> Ident.Tbl.replace own x ()) (let_bound_idents vbs)
        | _ -> ())
      body;
    let hit (e : expression) line =
      match e.exp_desc with
      | Texp_ident (Pident x, _, _) when not (Ident.Tbl.mem own x) -> (
          match Ident.Tbl.find_opt mutables x with
          | Some desc ->
              findings :=
                Report.finding "race" u.source line
                  (Printf.sprintf
                     "mutable %s `%s` is accessed from a Domain.spawn closure without an \
                      Atomic/Mutex guard"
                     desc (Ident.name x))
                :: !findings
          | None -> ())
      | _ -> ()
    in
    let rec walk guarded (e : expression) =
      match e.exp_desc with
      | Texp_apply (f, args) -> (
          let arg_exprs = List.filter_map snd args in
          match Front.callee u f with
          | Some "Stdlib.Mutex.protect" ->
              (* everything under Mutex.protect is guarded *)
              List.iter (walk true) arg_exprs
          | name ->
              (if not guarded then
                 List.iter
                   (fun (n, pos) ->
                     if name = Some n then
                       Option.iter
                         (fun ce -> hit ce (Front.line e.exp_loc))
                         (Option.bind (List.nth_opt args pos) snd))
                   access_calls);
              walk guarded f;
              List.iter (walk guarded) arg_exprs)
      | Texp_sequence _ ->
          (* scan the sequence spine for Mutex.lock/unlock bracketing *)
          let rec spine g (e : expression) =
            match e.exp_desc with
            | Texp_sequence (a, b) -> spine (step g a) b
            | _ -> ignore (step g e)
          and step g (a : expression) =
            match a.exp_desc with
            | Texp_apply (f, _) when Front.callee u f = Some "Stdlib.Mutex.lock" ->
                walk g a;
                true
            | Texp_apply (f, _) when Front.callee u f = Some "Stdlib.Mutex.unlock" ->
                walk g a;
                false
            | _ ->
                walk (guarded || g) a;
                g
          in
          spine false e
      | _ -> List.iter (walk guarded) (Front.children e)
    in
    walk false body
  in
  (* The body a spawned closure runs: a lambda, a let-bound closure of
     this file, or a partial application of one ([worker w]). *)
  let rec spawned_body (arg : expression) =
    match arg.exp_desc with
    | Texp_function _ -> Some arg
    | Texp_apply (f, _) -> spawned_body f
    | Texp_ident (Pident x, _, _) -> Ident.Tbl.find_opt closures x
    | _ -> None
  in
  (* [Domain.spawn f]: the closure [f] runs on another domain. *)
  Front.iter_exprs
    (fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
          let arg = match List.rev (List.filter_map snd args) with a :: _ -> Some a | [] -> None in
          match Front.callee u f with
          | Some "Stdlib.Domain.spawn" ->
              Option.iter check_spawned_body (Option.bind arg spawned_body)
          | _ -> ())
      | _ -> ())
    u.str;
  List.sort_uniq compare !findings
