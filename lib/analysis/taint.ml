(* Interprocedural secret-taint analysis over the typed tree.

   Taint values are int bitsets: bits 0..15 identify "depends on
   parameter i" while summarising a function, bits 16..47 do the same
   for nested local functions, and [secret_bit] marks "derived from a
   secret" — a pragma-named identifier, a DPF key, or a per-bucket
   selection bit. Join is [lor], so everything is monotone and the
   cross-file summary fixpoint terminates.

   One evaluator serves both modes. In summary mode the emit callback
   records which parameter bits reach a sink (branch condition, memory
   index, loop bound, allocation size); in report mode it turns
   secret-bit sinks into findings. Call sites consult summaries, so
   taint survives refactors that move a branch into a helper — the
   exact blind spot of the v1 token rules. Its branch sink is the one
   check for an if/match on a secret-flagged name.

   Every callee, source, sink and declassifier is keyed by its canonical
   path ([Front]), and locals by their [Ident.t]: a function merely
   named [length] declassifies nothing, and a callee reached through an
   open or a module alias is the function it names. An application's
   arguments come in the callee's parameter order, labels resolved by
   the typer. *)

open Typedtree
module SS = Set.Make (String)

let secret_bit = 1 lsl 60
let param_mask = 0xffff

(* Parameter [i]'s bit at nesting [base]; past the 16th, none. *)
let param_bit base i = if i < 16 then 1 lsl (base + i) else 0

type sink = Branch | Index | Loop | Alloc

let sink_name = function
  | Branch -> "branch condition"
  | Index -> "memory index"
  | Loop -> "loop bound"
  | Alloc -> "allocation size"

type summary = {
  mutable s_ret : int;  (* bit i: param i flows into the result *)
  mutable s_const : int;  (* secret_bit if the result is secret regardless of args *)
  mutable s_sink : int;  (* bit i: param i reaches a sink in the body *)
  mutable s_kinds : (int * sink) list;  (* example sink kind per param *)
}

type local_fn = {
  l_params : int;
  l_ret : int;  (* 0-based param mask flowing to the result *)
  l_sink : int;
  l_kinds : (int * sink) list;
  l_cap : int;  (* taint captured from the definition environment *)
}

(* [Applied]: a let-bound application, which may be a partially applied
   function; applying it gives its own taint along with the arguments'. *)
type entry = Val of int | Fn of local_fn | Applied of int

(* A function defined at structure level, by its canonical path. *)
type def = { d_name : string; d_params : Ident.t list list; d_body : Front.body; d_unit : input }

and input = { i_unit : Front.unit_; i_secrets : SS.t }

type ctx = {
  input : input;
  defs : (string, def option) Hashtbl.t;  (* None: two definitions share the path *)
  summaries : (string, summary) Hashtbl.t;
  emit : sink -> int -> line:int -> string -> unit;
  depth : int;  (* local-fn nesting level, for param-bit allocation *)
  mutated : int ref;  (* counts [:=]-style upgrades, driving loop re-evaluation *)
}

let find_summary ctx name =
  match Hashtbl.find_opt ctx.summaries name with
  | Some s -> s
  | None ->
      let s = { s_ret = 0; s_const = 0; s_sink = 0; s_kinds = [] } in
      Hashtbl.replace ctx.summaries name s;
      s

(* ------------------------------------------------------------------ *)
(* Name tables                                                         *)
(* ------------------------------------------------------------------ *)

(* Calls whose result is public geometry even when computed from secret
   carriers: lengths and a DPF key's domain size, each by its full path.
   [Spir.Client.recover] is the deliberate declassification boundary of
   the single-server PIR round trip: its output is the page the caller
   asked for, no longer the LWE secret. *)
let declassified_calls =
  SS.of_list
    [
      "Stdlib.String.length"; "Stdlib.Bytes.length"; "Stdlib.Array.length";
      "Lw_dpf.Dpf.domain_bits";
      "Lw_pir.Spir.Client.recover";
    ]

(* Built-in secret sources: DPF keys, per-bucket selection bits, and the
   single-server PIR client's per-query LWE secret (Spir.Client.query
   returns both the secret and the masked query vector derived from it —
   neither may reach a branch, index, loop bound or allocation size).
   Every name in these tables is an exported [val] or a [Stdlib] value
   (test_analysis checks it), so none outlives the function it names. *)
let source_calls =
  SS.of_list
    [
      "Lw_dpf.Dpf.gen"; "Lw_dpf.Dpf.eval_bit"; "Lw_dpf.Dpf.make_subkey";
      "Lw_pir.Server.eval_bits"; "Lw_pir.Spir.Client.query";
    ]

(* Higher-order DPF traversals: the callback's listed parameter
   positions receive secret leaf data. *)
let hof_seeds =
  [
    ("Lw_dpf.Dpf.eval_all_bits", [ 1 ]);
    ("Lw_dpf.Dpf.eval_bits_blocked", [ 1 ]);
    ("Lw_dpf.Dpf.eval_prefixes", [ 1; 2 ]);
  ]

(* Parameter positions whose taint flows into a memory index. *)
let index_sinks =
  List.map
    (fun (n, ps) -> ("Stdlib." ^ n, ps))
    [
      ("Array.get", [ 1 ]); ("Array.unsafe_get", [ 1 ]);
      ("Array.set", [ 1 ]); ("Array.unsafe_set", [ 1 ]);
      ("Bytes.get", [ 1 ]); ("Bytes.unsafe_get", [ 1 ]);
      ("Bytes.set", [ 1 ]); ("Bytes.unsafe_set", [ 1 ]);
      ("String.get", [ 1 ]); ("String.unsafe_get", [ 1 ]);
      ("Array.sub", [ 1; 2 ]); ("Bytes.sub", [ 1; 2 ]);
      ("String.sub", [ 1; 2 ]); ("Bytes.sub_string", [ 1; 2 ]);
      ("Bytes.blit", [ 1; 3; 4 ]); ("Bytes.blit_string", [ 1; 3; 4 ]);
      ("Array.blit", [ 1; 3; 4 ]); ("Bytes.fill", [ 1; 2 ]);
    ]

(* Parameter positions whose taint sizes an allocation ([Hashtbl.create]'s
   first parameter is its optional [?random]). *)
let alloc_sinks =
  List.map
    (fun (n, ps) -> ("Stdlib." ^ n, ps))
    [
      ("Array.make", [ 0 ]); ("Array.init", [ 0 ]);
      ("Array.create_float", [ 0 ]); ("Bytes.create", [ 0 ]);
      ("Bytes.make", [ 0 ]); ("String.make", [ 0 ]);
      ("Buffer.create", [ 0 ]); ("Hashtbl.create", [ 1 ]);
    ]

(* Writer calls: taint flowing into the container upgrades the
   container's binding, so later reads see it. snd = container arg. *)
let writer_calls =
  List.map
    (fun (n, p) -> ("Stdlib." ^ n, p))
    [
      ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Array.set", 0);
      ("Array.unsafe_set", 0); ("Bytes.blit", 2); ("Bytes.blit_string", 2);
      ("Array.blit", 2); ("Bytes.fill", 0); ("Hashtbl.replace", 0);
      ("Hashtbl.add", 0); ("Buffer.add_string", 0); ("Buffer.add_bytes", 0);
      ("Buffer.add_char", 0); ("Queue.push", 1); ("Queue.add", 1);
    ]

(* ------------------------------------------------------------------ *)
(* Environment: mutable table with save/restore scoping                *)
(* ------------------------------------------------------------------ *)

type env = entry Ident.Tbl.t

let bind (env : env) x v =
  let old = Ident.Tbl.find_opt env x in
  Ident.Tbl.replace env x v;
  (x, old)

let restore (env : env) (x, old) =
  match old with Some v -> Ident.Tbl.replace env x v | None -> Ident.Tbl.remove env x

let with_binds env pairs f =
  let saved = List.map (fun (x, v) -> bind env x v) pairs in
  Fun.protect ~finally:(fun () -> List.iter (restore env) (List.rev saved)) f

let lookup_val (env : env) x =
  match Ident.Tbl.find_opt env x with
  | Some (Val t | Applied t) -> t
  | Some (Fn f) -> f.l_cap
  | None -> 0

(* Raise the taint of an already-bound mutable carrier (ref cell,
   Bytes/Array buffer) in place; the enclosing binding's scope restore
   still applies, so the upgrade stays local to the defining scope. *)
let upgrade ctx (env : env) x extra =
  if extra <> 0 then
    match Ident.Tbl.find_opt env x with
    | Some (Val old) when old lor extra <> old ->
        Ident.Tbl.replace env x (Val (old lor extra));
        incr ctx.mutated
    | Some (Applied old) when old lor extra <> old ->
        Ident.Tbl.replace env x (Applied (old lor extra));
        incr ctx.mutated
    | _ -> ()

let local_of (e : expression) =
  match e.exp_desc with Texp_ident (Pident x, _, _) -> Some x | _ -> None

let secret_of ctx name = if SS.mem name ctx.input.i_secrets then secret_bit else 0
let nth_opt l n = try List.nth_opt l n with _ -> None
let binds vars t = List.map (fun v -> (v, Val t)) vars

(* What a call site knows of its callee. *)
type callee = {
  c_params : int;
  c_ret : int;
  c_const : int;
  c_sink : int;
  c_kinds : (int * sink) list;
  c_cap : int;
  c_label : string;
}

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

let rec eval ctx (env : env) (e : expression) : int =
  let sink kind t detail = if t <> 0 then ctx.emit kind t ~line:(Front.line e.exp_loc) detail in
  match e.exp_desc with
  | Texp_ident (Pident x, _, _) -> lookup_val env x lor secret_of ctx (Ident.name x)
  | Texp_ident (p, _, _) -> secret_of ctx (Path.last p)
  | Texp_constant _ -> 0
  | Texp_let (rf, vbs, body) -> eval_let ctx env rf vbs body
  | Texp_function _ ->
      (* A bare closure value: its taint is what it captures; the body
         is still walked so captured-secret sinks inside it report. *)
      (eval_fn ctx env e).l_cap
  | Texp_apply (f, args) -> eval_apply ctx env e f args
  | Texp_match (scrut, cases, _) ->
      let ts = eval ctx env scrut in
      if List.length cases > 1 then sink Branch ts "match scrutinee";
      eval_cases ctx env ts cases
  | Texp_try (b, cases) ->
      let t = eval ctx env b in
      t lor eval_cases ctx env 0 cases
  | Texp_ifthenelse (c, t, f) ->
      let tc = eval ctx env c in
      sink Branch tc "if condition";
      (* the chosen value depends on the condition: implicit flow *)
      tc lor eval ctx env t lor Option.fold ~none:0 ~some:(eval ctx env) f
  | Texp_while (c, b) ->
      let tc = eval ctx env c in
      sink Loop tc "while condition";
      eval_loop_body ctx env b;
      ignore (eval ctx env c);
      0
  | Texp_for (x, _, lo, hi, _, b) ->
      let t = eval ctx env lo lor eval ctx env hi in
      sink Loop t "for-loop bound";
      with_binds env [ (x, Val t) ] (fun () -> eval_loop_body ctx env b);
      0
  | Texp_sequence (a, b) ->
      ignore (eval ctx env a);
      eval ctx env b
  | Texp_field (b, _, ld) -> eval ctx env b lor secret_of ctx ld.lbl_name
  | Texp_setfield (r, _, _, v) ->
      ignore (eval ctx env r);
      ignore (eval ctx env v);
      0
  | Texp_assert (c, _) ->
      sink Branch (eval ctx env c) "assert condition";
      0
  | Texp_letop { let_; ands; body; _ } ->
      let t = List.fold_left (fun acc a -> acc lor eval ctx env a.bop_exp) 0 (let_ :: ands) in
      with_binds env (binds (pat_bound_idents body.c_lhs) t) (fun () -> eval ctx env body.c_rhs)
  | Texp_letmodule (_, _, _, _, body) | Texp_letexception (_, body) -> eval ctx env body
  | Texp_extension_constructor _ -> 0
  | _ -> List.fold_left (fun acc c -> acc lor eval ctx env c) 0 (Front.children e)

and eval_body ctx env = function
  | Front.Expr e -> eval ctx env e
  | Front.Cases (param, cases, loc) ->
      let ts = lookup_val env param in
      if ts <> 0 && List.length cases > 1 then
        ctx.emit Branch ts ~line:(Front.line loc) "match scrutinee";
      eval_cases ctx env ts cases

and eval_cases : 'k. ctx -> env -> int -> 'k case list -> int =
 fun ctx env scrut_taint cases ->
  List.fold_left
    (fun acc c ->
      with_binds env (binds (pat_bound_idents c.c_lhs) scrut_taint) (fun () ->
          (match c.c_guard with
          | Some g ->
              let tg = eval ctx env g in
              if tg <> 0 then ctx.emit Branch tg ~line:(Front.line g.exp_loc) "match guard"
          | None -> ());
          acc lor eval ctx env c.c_rhs))
    0 cases

and eval_loop_body ctx env b =
  (* Loop bodies run more than once: a [:=] late in the body can feed a
     read earlier in the next iteration.  Re-evaluate once whenever the
     first pass upgraded a mutable binding, so loop-carried taint
     reaches every use on the second pass. *)
  let before = !(ctx.mutated) in
  ignore (eval ctx env b);
  if !(ctx.mutated) <> before then ignore (eval ctx env b)

and eval_fn ctx env e =
  match Front.uncurry e with
  | [], body ->
      { l_params = 0; l_ret = 0; l_sink = 0; l_kinds = []; l_cap = eval_body ctx env body }
  | params, body -> summarize_fn ctx env params body

(* Summarise a closure: pass 1 walks the body under the definition
   environment (parameters bound to nothing) to report captured-secret
   sinks and compute the captured result taint; pass 2 re-walks it with
   fresh per-parameter bits, recording only which parameters reach
   sinks or the result — its emit forwards nothing, so nothing is
   double-reported. *)
and summarize_fn ctx env params body =
  let n = List.length params in
  (* pass 1: captured-taint report under the outer environment *)
  let l_cap = with_binds env (binds (List.concat params) 0) (fun () -> eval_body ctx env body) in
  (* pass 2: per-parameter bits, recording summaries only *)
  let depth = ctx.depth + 1 in
  if depth > 3 then { l_params = n; l_ret = 0; l_sink = 0; l_kinds = []; l_cap }
  else begin
    let base = 16 * depth in
    let sink_bits = ref 0 and kinds = ref [] in
    let emit kind bits ~line:_ _detail =
      let local = (bits lsr base) land param_mask in
      sink_bits := !sink_bits lor local;
      for i = 0 to 15 do
        if local land (1 lsl i) <> 0 && not (List.mem_assoc i !kinds) then
          kinds := (i, kind) :: !kinds
      done
    in
    let bit_binds =
      List.concat (List.mapi (fun i vars -> binds vars (param_bit base i)) params)
    in
    let ret = with_binds env bit_binds (fun () -> eval_body { ctx with emit; depth } env body) in
    {
      l_params = n;
      l_ret = (ret lsr base) land param_mask;
      l_sink = !sink_bits;
      l_kinds = !kinds;
      l_cap;
    }
  end

(* A let-bound function gets its summary as a [Fn] (a recursive one sees
   an empty provisional summary, then one refinement round). *)
and bind_fn ctx env rf x e =
  if rf = Asttypes.Recursive then begin
    let saved = bind env x (Fn { l_params = 0; l_ret = 0; l_sink = 0; l_kinds = []; l_cap = 0 }) in
    Ident.Tbl.replace env x (Fn (eval_fn ctx env e));
    let lf = eval_fn ctx env e in
    restore env saved;
    lf
  end
  else eval_fn ctx env e

and eval_let ctx env rf vbs body =
  (* functions get an on-the-fly summary; other bindings give every
     bound variable the RHS taint *)
  let pairs =
    List.concat_map
      (fun vb ->
        match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
        | Tpat_var (x, _), Texp_function _ -> [ (x, Fn (bind_fn ctx env rf x vb.vb_expr)) ]
        | Tpat_var (x, _), Texp_apply _ -> [ (x, Applied (eval ctx env vb.vb_expr)) ]
        | _ -> binds (pat_bound_idents vb.vb_pat) (eval ctx env vb.vb_expr))
      vbs
  in
  with_binds env pairs (fun () -> eval ctx env body)

and eval_apply ctx env e f args =
  let line = Front.line e.exp_loc in
  let arg_exprs = List.filter_map snd args in
  let eval_all () = List.fold_left (fun acc a -> acc lor eval ctx env a) 0 arg_exprs in
  let name = Front.callee ctx.input.i_unit f in
  match (name, arg_exprs) with
  | Some "Stdlib.@@", [ g; x ] | Some "Stdlib.|>", [ x; g ] -> (
      match g.exp_desc with
      | Texp_ident _ -> eval_apply ctx env e g [ (Asttypes.Nolabel, Some x) ]
      | _ -> eval_unknown ctx env f args)
  | Some "Stdlib.:=", [ lhs; rhs ] ->
      let t = eval ctx env rhs lor eval ctx env lhs in
      Option.iter (fun x -> upgrade ctx env x t) (local_of lhs);
      0
  | Some n, _ when SS.mem n declassified_calls ->
      ignore (eval_all ());
      0
  | Some n, _ when SS.mem n source_calls -> eval_all () lor secret_bit
  | Some n, _ when List.mem_assoc n hof_seeds ->
      eval_hof ctx env ~line (List.assoc n hof_seeds) arg_exprs
  | _, _ when local_of f = None && name = None -> eval_unknown ctx env f args
  | _ -> (
      let taints = List.map (function _, Some a -> eval ctx env a | _, None -> 0) args in
      let all = List.fold_left ( lor ) 0 taints in
      let lookup table = Option.bind name (fun n -> List.assoc_opt n table) in
      (* sink tables *)
      let check table kind what =
        match lookup table with
        | None -> false
        | Some ps ->
            List.iter
              (fun p ->
                match nth_opt taints p with
                | Some t when t <> 0 ->
                    ctx.emit kind t ~line
                      (Printf.sprintf "%s argument %d of %s" what p (Option.get name))
                | _ -> ())
              ps;
            true
      in
      let is_index = check index_sinks Index "index" in
      let is_alloc = check alloc_sinks Alloc "size" in
      (* container writes upgrade the written binding *)
      Option.iter
        (fun cpos ->
          match Option.bind (nth_opt args cpos) snd with
          | Some ce -> Option.iter (fun x -> upgrade ctx env x all) (local_of ce)
          | None -> ())
        (lookup writer_calls);
      if is_index || is_alloc then all
      else
        (* summary-based call *)
        match resolve_callee ctx env f with
        | Some c ->
            List.iteri
              (fun i t ->
                if i < c.c_params && t <> 0 && c.c_sink land (1 lsl i) <> 0 then
                  let kind = Option.value (List.assoc_opt i c.c_kinds) ~default:Branch in
                  ctx.emit kind t ~line
                    (Printf.sprintf "argument %d of %s, which feeds a %s inside it" i c.c_label
                       (sink_name kind)))
              taints;
            let ret = ref 0 in
            List.iteri
              (fun i t -> if i < c.c_params && c.c_ret land (1 lsl i) <> 0 then ret := !ret lor t)
              taints;
            !ret lor c.c_const lor c.c_cap
        | None -> (
            match Option.bind (local_of f) (Ident.Tbl.find_opt env) with
            | Some (Applied t) -> all lor t
            | _ -> all))

and eval_unknown ctx env f args =
  (* computed callee: evaluate it (walking closure bodies), then
     propagate everything *)
  List.fold_left
    (fun acc (_, a) -> match a with Some a -> acc lor eval ctx env a | None -> acc)
    (eval ctx env f) args

(* A DPF traversal: the trailing callback receives secret leaf data in
   the listed positions. Literal closures are evaluated with those
   parameters seeded; named callbacks are checked via their summary. *)
and eval_hof ctx env ~line positions arg_exprs =
  (match List.rev arg_exprs with
  | [] -> ()
  | cb :: rest -> (
      List.iter (fun a -> ignore (eval ctx env a)) (List.rev rest);
      match (Front.uncurry cb, cb.exp_desc) with
      | ((_ :: _ as params), body), _ ->
          let seeded =
            List.concat
              (List.mapi
                 (fun i vars -> binds vars (if List.mem i positions then secret_bit else 0))
                 params)
          in
          with_binds env seeded (fun () -> ignore (eval_body ctx env body))
      | ([], _), Texp_ident _ -> (
          (* named callback: consult its summary *)
          match resolve_callee ctx env cb with
          | Some c ->
              List.iter
                (fun p ->
                  if p < c.c_params && c.c_sink land (1 lsl p) <> 0 then
                    let kind = Option.value (List.assoc_opt p c.c_kinds) ~default:Branch in
                    ctx.emit kind secret_bit ~line
                      (Printf.sprintf "DPF leaf data reaches a %s inside callback %s"
                         (sink_name kind)
                         c.c_label))
                positions
          | None -> ())
      | _ -> ignore (eval ctx env cb)));
  0

(* Resolve a callee: a let-bound function in scope first, then the
   structure-level definition its canonical path names. *)
and resolve_callee ctx env f =
  match Option.bind (local_of f) (Ident.Tbl.find_opt env) with
  | Some (Fn lf) ->
      Some
        {
          c_params = lf.l_params;
          c_ret = lf.l_ret;
          c_const = 0;
          c_sink = lf.l_sink;
          c_kinds = lf.l_kinds;
          c_cap = lf.l_cap;
          c_label = Ident.name (Option.get (local_of f));
        }
  | _ -> (
      let def n = Option.join (Hashtbl.find_opt ctx.defs n) in
      match Option.bind (Front.callee ctx.input.i_unit f) def with
      | Some d ->
          let s = find_summary ctx d.d_name in
          Some
            {
              c_params = List.length d.d_params;
              c_ret = s.s_ret;
              c_const = s.s_const;
              c_sink = s.s_sink;
              c_kinds = s.s_kinds;
              c_cap = 0;
              c_label = d.d_name;
            }
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Every structure-level function of the inputs, nested modules
   included, by canonical path. *)
let definitions inputs =
  let defs = ref [] and by_name = Hashtbl.create 256 in
  let rec walk i (items : structure_item list) =
    List.iter
      (fun si ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                | Tpat_var (x, _), Texp_function _ -> (
                    match i.i_unit.Front.resolve (Pident x) with
                    | Some d_name ->
                        let d_params, d_body = Front.uncurry vb.vb_expr in
                        let d = { d_name; d_params; d_body; d_unit = i } in
                        defs := d :: !defs;
                        Hashtbl.replace by_name d_name
                          (if Hashtbl.mem by_name d_name then None else Some d)
                    | None -> ())
                | _ -> ())
              vbs
        | Tstr_module mb -> walk_module i mb
        | Tstr_recmodule mbs -> List.iter (walk_module i) mbs
        | _ -> ())
      items
  and walk_module i mb =
    Option.iter (fun s -> walk i s.str_items) (Front.structure_of mb.mb_expr)
  in
  List.iter (fun i -> walk i i.i_unit.str.str_items) inputs;
  (List.rev !defs, by_name)

(* Cross-file summary fixpoint: recompute every definition's summary
   until nothing grows. All updates are [lor]-monotone over a finite
   bit domain, so this terminates; the round cap is a safety net. *)
let compute_summaries defs by_name =
  let summaries = Hashtbl.create 256 in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun d ->
        let sink_bits = ref 0 and kinds = ref [] in
        let emit kind bits ~line:_ _ =
          let p = bits land param_mask in
          sink_bits := !sink_bits lor p;
          for i = 0 to 15 do
            if p land (1 lsl i) <> 0 && not (List.mem_assoc i !kinds) then
              kinds := (i, kind) :: !kinds
          done
        in
        let ctx =
          { input = d.d_unit; defs = by_name; summaries; emit; depth = 0; mutated = ref 0 }
        in
        let s = find_summary ctx d.d_name in
        let env = Ident.Tbl.create 16 in
        List.iteri
          (fun i vars -> List.iter (fun v -> Ident.Tbl.replace env v (Val (param_bit 0 i))) vars)
          d.d_params;
        let ret = eval_body ctx env d.d_body in
        let new_ret = s.s_ret lor (ret land param_mask) in
        let new_const = s.s_const lor (ret land secret_bit) in
        let new_sink = s.s_sink lor !sink_bits in
        if new_ret <> s.s_ret || new_const <> s.s_const || new_sink <> s.s_sink then begin
          s.s_ret <- new_ret;
          s.s_const <- new_const;
          s.s_sink <- new_sink;
          changed := true
        end;
        List.iter
          (fun (i, k) -> if not (List.mem_assoc i s.s_kinds) then s.s_kinds <- (i, k) :: s.s_kinds)
          !kinds)
      defs
  done;
  summaries

(* Report mode: walk each file's module-level bindings in order with a
   persistent environment, turning secret-bit sink events into
   findings. *)
let analyze (inputs : input list) : Report.finding list =
  let defs, by_name = definitions inputs in
  let summaries = compute_summaries defs by_name in
  let findings = ref [] in
  let analyze_file (i : input) =
    let emit kind bits ~line detail =
      if bits land secret_bit <> 0 then
        findings :=
          Report.finding "taint" i.i_unit.source line
            (Printf.sprintf "secret-tainted value reaches %s (%s)" (sink_name kind) detail)
          :: !findings
    in
    let ctx = { input = i; defs = by_name; summaries; emit; depth = 0; mutated = ref 0 } in
    let env = Ident.Tbl.create 64 in
    let rec walk_items items =
      List.iter
        (fun si ->
          match si.str_desc with
          | Tstr_value (rf, vbs) ->
              (* persist module-level bindings: later items see them *)
              List.iter
                (fun vb ->
                  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                  | Tpat_var (x, _), Texp_function _ ->
                      Ident.Tbl.replace env x (Fn (bind_fn ctx env rf x vb.vb_expr))
                  | _ ->
                      let t = eval ctx env vb.vb_expr in
                      List.iter
                        (fun v -> Ident.Tbl.replace env v (Val t))
                        (pat_bound_idents vb.vb_pat))
                vbs
          | Tstr_eval (e, _) -> ignore (eval ctx env e)
          | Tstr_module mb -> walk_module mb
          | Tstr_recmodule mbs -> List.iter walk_module mbs
          | _ -> ())
        items
    and walk_module mb =
      Option.iter (fun s -> walk_items s.str_items) (Front.structure_of mb.mb_expr)
    in
    walk_items i.i_unit.str.str_items
  in
  List.iter analyze_file inputs;
  List.sort_uniq compare !findings
