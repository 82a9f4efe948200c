(* Thin front-end over compiler-libs: parse a source file into a
   Parsetree and expose the handful of AST helpers the analyses share.
   The token [Lexer] stays responsible for pragmas and comments; this
   module is only about structure. Everything here targets the 5.1
   Parsetree (notably [Pexp_fun] with an explicit pattern and
   [Pexp_function] carrying a case list). *)

module SS = Set.Make (String)

let parse ~path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception e -> Error (Printexc.to_string e)

let line (l : Location.t) = l.loc_start.pos_lnum

(* [Longident.flatten] raises on functor applications; fold them away
   instead, keeping the path part we can name. *)
let name_of_lid lid =
  let rec flat acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> flat (s :: acc) l
    | Longident.Lapply (_, l) -> flat acc l
  in
  String.concat "." (flat [] lid)

let last_seg name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* "A.B.C.f" -> "C.f": call sites qualify through library aliases
   ([Lw_store.Snapshot.pin]) while definitions register under their
   innermost module, so suffix matching is done on the last two
   segments. *)
let last2 name =
  match List.rev (String.split_on_char '.' name) with
  | a :: b :: _ -> b ^ "." ^ a
  | [ a ] -> a
  | [] -> name

let rec pattern_vars (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var s -> [ s.txt ]
  | Ppat_alias (p, s) -> s.txt :: pattern_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_vars ps
  | Ppat_construct (_, Some (_, p)) -> pattern_vars p
  | Ppat_variant (_, Some p) -> pattern_vars p
  | Ppat_record (fs, _) -> List.concat_map (fun (_, p) -> pattern_vars p) fs
  | Ppat_or (a, b) -> pattern_vars a @ pattern_vars b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_exception p | Ppat_open (_, p)
    ->
      pattern_vars p
  | _ -> []

(* Split a [fun a b -> body] chain into its parameter patterns (each
   parameter may bind several variables via tuples) and the innermost
   body. *)
let rec uncurry (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let ps, b = uncurry body in
      (pattern_vars pat :: ps, b)
  | Pexp_newtype (_, body) -> uncurry body
  | Pexp_constraint (e, _) -> uncurry e
  | _ -> ([], e)

(* The labels of [uncurry]'s parameters, in the same order. *)
let rec param_labels (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (label, _, _, body) -> label :: param_labels body
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> param_labels body
  | _ -> []

let head_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident l -> Some (name_of_lid l.txt)
  | _ -> None

(* Direct sub-expressions of [e], one level deep — the default case for
   walkers that handle binding constructs explicitly. *)
let shallow_children (e : Parsetree.expression) =
  let acc = ref [] in
  let collect =
    { Ast_iterator.default_iterator with expr = (fun _ c -> acc := c :: !acc) }
  in
  Ast_iterator.default_iterator.expr collect e;
  List.rev !acc

(* Depth-first visit of every expression under [e] (including [e]). *)
let iter_exprs f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e

(* Every expression in a structure, including module-level bindings and
   nested modules. *)
let iter_structure_exprs f (str : Parsetree.structure) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

let all_idents e =
  let out = ref SS.empty in
  iter_exprs
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Pexp_ident l -> out := SS.add (name_of_lid l.txt) !out
      | _ -> ())
    e;
  !out

(* Simple (unqualified) identifiers of [e] that are not bound inside
   [e] itself — i.e. the names a closure captures from its environment.
   Qualified names are module-level and never a local capture. The
   default case walks children under the same bound set, which can only
   over-approximate the free set for exotic binders. *)
let free_idents (expr : Parsetree.expression) =
  let out = ref SS.empty in
  let add_vars bound p = List.fold_left (fun b v -> SS.add v b) bound (pattern_vars p) in
  let rec go bound (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } ->
        if not (SS.mem x bound) then out := SS.add x !out
    | Pexp_ident _ -> ()
    | Pexp_let (rf, vbs, body) ->
        let bound' =
          List.fold_left (fun b vb -> add_vars b vb.Parsetree.pvb_pat) bound vbs
        in
        let rhs_bound = if rf = Asttypes.Recursive then bound' else bound in
        List.iter (fun vb -> go rhs_bound vb.Parsetree.pvb_expr) vbs;
        go bound' body
    | Pexp_fun (_, dflt, pat, body) ->
        Option.iter (go bound) dflt;
        go (add_vars bound pat) body
    | Pexp_function cases -> List.iter (go_case bound) cases
    | Pexp_match (s, cases) | Pexp_try (s, cases) ->
        go bound s;
        List.iter (go_case bound) cases
    | Pexp_for (pat, lo, hi, _, body) ->
        go bound lo;
        go bound hi;
        go (add_vars bound pat) body
    | _ -> List.iter (go bound) (shallow_children e)
  and go_case bound (c : Parsetree.case) =
    let b = add_vars bound c.pc_lhs in
    Option.iter (go b) c.pc_guard;
    go b c.pc_rhs
  in
  go SS.empty expr;
  !out
