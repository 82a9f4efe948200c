(* The one front end of lw_analysis: the compiler's typed trees. A linted
   source's tree is the .cmt the build wrote for it (dune writes one per
   unit), read with the comments the compiler's lexer set aside, which
   carry the lw-lint pragmas; an in-memory fixture is parsed and typed
   here against the built libraries' .cmi files. A source without a
   fresh typed tree is reported, never skipped.

   Every [Path.t] resolves to one canonical dotted name. The typer has
   already applied opens and includes; what is left is the unit's own
   names (structure-level values, types and modules, and module aliases
   at any depth), the other units' module aliases (a library's wrapper,
   a [module U = L.M] another unit reads through), and dune's unit names
   ("Lw_dpf__Dpf" is "Lw_dpf.Dpf"). So [Dpf.gen] inside lw_dpf,
   [Lw_dpf.Dpf.gen] elsewhere and [U.gen] under [module U = Lw_dpf.Dpf]
   are all "Lw_dpf.Dpf.gen", and [String.length] is
   "Stdlib.String.length". A name bound inside a function resolves to
   nothing: the analyses key locals by their [Ident.t]. *)

open Typedtree

let line (l : Location.t) = l.loc_start.pos_lnum

(* What a unit names, for the reachability gate: a [Value] is a value
   read; everything else (types, constructors, fields, modules) is
   [Other]. *)
type use = Value | Other

type unit_ = {
  source : string;  (* the path it is linted under *)
  modname : string;  (* the compilation unit: "Lw_dpf__Dpf" *)
  str : structure;
  comments : (string * Location.t) list;
  aliases : (string list * string list) list;  (* its module aliases, by qualified name *)
  uses : (use * string list) list;  (* every name it reads, qualified *)
  resolve : Path.t -> string option;  (* canonical dotted name *)
}

(* [q] with the units' module aliases applied until none applies (the
   compiler rejects a cycle of aliases): a library's [Lightweb.Zltp_wire]
   is its unit [Lightweb__Zltp_wire]. *)
let expand aliases q =
  let rec go pre = function
    | [] -> List.rev pre
    | x :: rest -> (
        let pre = x :: pre in
        match Hashtbl.find_opt aliases (List.rev pre) with
        | Some target -> go [] (target @ rest)
        | None -> go pre rest)
  in
  go [] q

(* dune's unit name as the module path it is reached by:
   "Lw_dpf__Dpf" -> ["Lw_dpf"; "Dpf"] *)
let demangle s =
  let n = String.length s in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' && i > start then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  List.filter (fun seg -> seg <> "") (go 0 0 [])

let canonical aliases q =
  match expand aliases q with [] -> "" | unit :: rest -> String.concat "." (demangle unit @ rest)

(* One walk over a unit's tree: the qualified name of every name bound at
   structure level, its module aliases, and (for the gate) every path it
   reads. [aliases] is shared by all the units loaded together, so a
   unit's [resolve] sees every other unit's aliases. *)
let of_structure aliases ~source ~modname ~comments str =
  let names = Ident.Tbl.create 64 and prefix = ref [ modname ] in
  let own = ref [] and raw = ref [] and direct = ref [] in
  let rec flatten : Path.t -> string list option = function
    | Pident id -> (
        match Ident.Tbl.find_opt names id with
        | Some q -> Some q
        | None -> if Ident.global id then Some [ Ident.name id ] else None)
    | Pdot (p, s) -> Option.map (fun q -> q @ [ s ]) (flatten p)
    | Pextra_ty (p, _) -> flatten p
    | Papply _ -> None
  in
  let use kind p = raw := (kind, p) :: !raw in
  let bind id = Ident.Tbl.replace names id (!prefix @ [ Ident.name id ]) in
  let type_use ty = match Types.get_desc ty with Tconstr (p, _, _) -> use Other p | _ -> () in
  let constructor (cd : Types.constructor_description) =
    match cd.cstr_tag with Cstr_extension (p, _) -> use Other p | _ -> type_use cd.cstr_res
  in
  let rec alias_of (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> flatten p
    | Tmod_constraint (me, _, _, _) -> alias_of me
    | _ -> None
  in
  (* [module U = L.M] binds U to L.M's name: true when [me] is one *)
  let alias id name me =
    match alias_of me with
    | Some q ->
        Option.iter (fun id -> Ident.Tbl.replace names id q) id;
        Option.iter (fun n -> own := (!prefix @ [ n ], q) :: !own) name;
        direct := (Other, q) :: !direct;
        true
    | None -> false
  in
  let open Tast_iterator in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun self p ->
    (match p.pat_desc with
    | Tpat_construct (_, cd, _, _) -> constructor cd
    | Tpat_record (fields, _) -> List.iter (fun (_, ld, _) -> type_use ld.Types.lbl_res) fields
    | _ -> ());
    default_iterator.pat self p
  in
  let depth = ref 0 in
  let it =
    {
      default_iterator with
      pat;
      structure_item =
        (fun self si ->
          (if !depth = 0 then
             match si.str_desc with
             | Tstr_value (_, vbs) -> List.iter bind (let_bound_idents vbs)
             | Tstr_type (_, decls) -> List.iter (fun d -> bind d.typ_id) decls
             | _ -> ());
          default_iterator.structure_item self si);
      value_binding =
        (fun self vb ->
          incr depth;
          default_iterator.value_binding self vb;
          decr depth);
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_letmodule (id, _, _, me, body) when alias id None me -> self.expr self body
          | desc ->
              (match desc with
              | Texp_ident (p, _, _) -> use Value p
              | Texp_construct (_, cd, _) -> constructor cd
              | Texp_field (_, _, ld) | Texp_setfield (_, _, ld, _) -> type_use ld.lbl_res
              | Texp_record { fields; _ } ->
                  Array.iter (fun (ld, _) -> type_use ld.Types.lbl_res) fields
              | _ -> ());
              default_iterator.expr self e);
      module_binding =
        (fun self mb ->
          let name = mb.mb_name.txt in
          if not (alias mb.mb_id name mb.mb_expr) then begin
            let saved = !prefix and saved_depth = !depth in
            prefix := saved @ [ Option.value name ~default:"_" ];
            Option.iter (fun id -> Ident.Tbl.replace names id !prefix) mb.mb_id;
            depth := 0;
            default_iterator.module_binding self mb;
            prefix := saved;
            depth := saved_depth
          end);
      module_expr =
        (fun self me ->
          match me.mod_desc with
          | Tmod_ident (p, _) -> use Other p
          | _ -> default_iterator.module_expr self me);
      open_description = (fun _ od -> use Other (fst od.open_expr));
      typ =
        (fun self t ->
          (match t.ctyp_desc with
          | Ttyp_constr (p, _, _) -> use Other p
          | Ttyp_package pk -> use Other pk.pack_path
          | _ -> ());
          default_iterator.typ self t);
      module_type =
        (fun self mt ->
          (match mt.mty_desc with Tmty_ident (p, _) | Tmty_alias (p, _) -> use Other p | _ -> ());
          default_iterator.module_type self mt);
    }
  in
  it.structure it str;
  List.iter (fun (a, t) -> Hashtbl.replace aliases a t) !own;
  let uses =
    !direct @ List.filter_map (fun (k, p) -> Option.map (fun q -> (k, q)) (flatten p)) !raw
  in
  {
    source;
    modname;
    str;
    comments;
    aliases = !own;
    uses;
    resolve = (fun p -> Option.map (canonical aliases) (flatten p));
  }

(* A record label's canonical name: its record type's, then the label,
   "Lw_net.Endpoint.t.recv". *)
let label u (ld : Types.label_description) =
  match Types.get_desc ld.lbl_res with
  | Tconstr (p, _, _) -> Option.map (fun t -> t ^ "." ^ ld.lbl_name) (u.resolve p)
  | _ -> None

(* The callee's canonical name when it is a named value. *)
let callee u (f : expression) =
  match f.exp_desc with Texp_ident (p, _, _) -> u.resolve p | _ -> None

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(* The build context this executable runs from (_build/default, the
   parent of its directory): the typed trees and .cmi files are read
   there, whatever the working directory. *)
let build_root =
  let exe = Sys.executable_name in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  Filename.dirname (Filename.dirname exe)

(* dune's bytecode object directories under [dir]: where each unit's
   .cmi and .cmt sit. *)
let rec byte_dirs dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else if Filename.basename dir = "byte" then [ dir ]
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e -> byte_dirs (Filename.concat dir e))

(* Every typed tree the build wrote under [dirs] (relative to the build
   root), by the source path the build compiled: "lib/dpf/dpf.ml" ->
   (digest of that source, unit). *)
let load dirs =
  let aliases = Hashtbl.create 256 in
  List.concat_map (fun d -> byte_dirs (Filename.concat build_root d)) dirs
  |> List.concat_map (fun dir ->
         Sys.readdir dir |> Array.to_list |> List.sort compare
         |> List.filter (fun f -> Filename.check_suffix f ".cmt")
         |> List.map (Filename.concat dir))
  |> List.filter_map (fun file ->
         let cmt = Cmt_format.read_cmt file in
         match (cmt.cmt_annots, cmt.cmt_sourcefile) with
         | Implementation str, Some source ->
             Some
               ( source,
                 ( cmt.cmt_source_digest,
                   of_structure aliases ~source ~modname:cmt.cmt_modname ~comments:cmt.cmt_comments
                     str ) )
         | _ -> None)

(* A path as the build names its source: from the first repo root on
   (lib/, bin/, bench/, test/, examples/), so "../lib/x.ml" and
   "_build/default/lib/x.ml" are "lib/x.ml". *)
let roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let normalize_path p =
  let segs = List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' p) in
  let rec find = function
    | [] -> None
    | s :: _ as l when List.mem s roots -> Some l
    | _ :: rest -> find rest
  in
  match find segs with
  | Some l -> String.concat "/" l
  | None -> String.concat "/" (List.filter (fun s -> s <> "..") segs)

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Types each fixture (path, source) in order, each seeing the ones
   before it as compilation units, against the standard library, Unix
   and every library the build put under lib/. A fixture that does not
   parse or type gives the compiler's line and message instead. *)
let include_dirs =
  lazy
    (List.map (Filename.concat Config.standard_library) [ "unix"; "threads" ]
    @ byte_dirs (Filename.concat build_root "lib"))

let typed_fixtures files =
  ignore (Warnings.parse_options false "-a");
  Clflags.include_dirs := Lazy.force include_dirs;
  Compmisc.init_path ();
  let env = ref (Compmisc.initial_env ()) and aliases = Hashtbl.create 16 in
  List.map
    (fun (source, src) ->
      let modname = module_of_file source in
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf source;
      match
        let ast = Parse.implementation lexbuf in
        (Lexer.comments (), Typemod.type_structure !env ast)
      with
      | comments, (str, sg, _, _, _) ->
          let id = Ident.create_persistent modname in
          env := Env.add_module id Mp_present (Mty_signature sg) !env;
          (source, Ok (of_structure aliases ~source ~modname ~comments str))
      | exception e -> (
          match Location.error_of_exn e with
          | Some (`Ok { Location.main; _ }) ->
              (source, Error (line main.loc, Format.asprintf "%t" main.txt))
          | Some `Already_displayed | None -> (source, Error (1, Printexc.to_string e))))
    files

(* ------------------------------------------------------------------ *)
(* Walking typed trees                                                 *)
(* ------------------------------------------------------------------ *)

(* A function's innermost body: an expression, or, for a function of
   several cases, the cases it matches its last parameter with. *)
type body = Expr of expression | Cases of Ident.t * value case list * Location.t

(* Split a [fun a b -> body] chain into each parameter's bound idents and
   the innermost body. An optional parameter's default, which the typer
   binds by a [let] at the head of the rest, binds with the parameter. *)
let rec uncurry (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
      let vars, rest =
        match c_rhs.exp_desc with
        | Texp_let (_, [ vb ], rest)
          when List.exists (fun a -> a.Parsetree.attr_name.txt = "#default") c_rhs.exp_attributes ->
            (pat_bound_idents c_lhs @ pat_bound_idents vb.vb_pat, rest)
        | _ -> (pat_bound_idents c_lhs, c_rhs)
      in
      let ps, body = uncurry rest in
      (vars :: ps, body)
  | Texp_function { param; cases; _ } -> ([ [ param ] ], Cases (param, cases, e.exp_loc))
  | _ -> ([], Expr e)

(* A module expression's structure, through a signature constraint. *)
let rec structure_of (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (me, _, _, _) -> structure_of me
  | _ -> None

(* Direct sub-expressions of [e], one level deep: the default case for
   walkers that handle binding constructs explicitly. *)
let children (e : expression) =
  let acc = ref [] in
  let it = { Tast_iterator.default_iterator with expr = (fun _ c -> acc := c :: !acc) } in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

(* Depth-first visit of every expression of a structure, or under an
   expression (itself included). *)
let iterator f =
  {
    Tast_iterator.default_iterator with
    expr =
      (fun self e ->
        f e;
        Tast_iterator.default_iterator.expr self e);
  }

let iter_exprs f (str : structure) =
  let it = iterator f in
  it.structure it str

let iter_expr f e =
  let it = iterator f in
  it.expr it e

(* Whether [e] reads the local [x] anywhere. *)
let mentions x e =
  let found = ref false in
  iter_expr
    (fun e ->
      match e.exp_desc with
      | Texp_ident (Pident y, _, _) when Ident.same x y -> found := true
      | _ -> ())
    e;
  !found
