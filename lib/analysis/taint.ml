(* Interprocedural secret-taint analysis over the Parsetree.

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
   exact blind spot of the v1 token rules. *)

module SS = Set.Make (String)

let secret_bit = 1 lsl 60
let param_mask = 0xffff

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
  l_params : string list list;
  l_labels : Asttypes.arg_label list;  (* each parameter's label; [] when unknown *)
  l_ret : int;  (* 0-based param mask flowing to the result *)
  l_sink : int;
  l_kinds : (int * sink) list;
  l_cap : int;  (* taint captured from the definition environment *)
}

(* [Applied]: a let-bound application, which may be a partially applied
   function; applying it gives its own taint along with the arguments'. *)
type entry = Val of int | Fn of local_fn | Applied of int

type ctx = {
  graph : Call_graph.t;
  summaries : (string, summary) Hashtbl.t;
  secret_names : SS.t;  (* per-file [lw-lint: secret] pragma names *)
  file : string;
  emit : sink -> int -> line:int -> string -> unit;
  depth : int;  (* local-fn nesting level, for param-bit allocation *)
  mutated : int ref;  (* counts [:=]-style upgrades, driving loop re-evaluation *)
  opens : string list;  (* modules of the enclosing [let open M in] / [M.( )], innermost first *)
}

(* The names a callee may denote: a bare name under local opens is
   [M.name] for each open [M], innermost first, and then itself. *)
let candidates ctx name =
  if String.contains name '.' then [ name ]
  else List.map (fun m -> m ^ "." ^ name) ctx.opens @ [ name ]

let summary_key (d : Call_graph.def) =
  Printf.sprintf "%s:%d:%s" d.d_file d.d_line d.d_name

let find_summary ctx d =
  let key = summary_key d in
  match Hashtbl.find_opt ctx.summaries key with
  | Some s -> s
  | None ->
      let s = { s_ret = 0; s_const = 0; s_sink = 0; s_kinds = [] } in
      Hashtbl.replace ctx.summaries key s;
      s

(* ------------------------------------------------------------------ *)
(* Name tables                                                         *)
(* ------------------------------------------------------------------ *)

(* Calls whose result is public geometry even when computed from secret
   carriers: lengths, domain sizes, party indices, epochs. Matching is
   on the last segment so it covers every module's [length].
   [recover] (Spir.Client.recover) is the deliberate declassification
   boundary of the single-server PIR round trip: its output is the page
   the caller asked for, no longer the LWE secret. *)
let declassified_calls =
  SS.of_list
    [
      "length"; "domain_bits"; "value_len"; "party"; "bucket_size"; "size";
      "epoch"; "serialized_size"; "paper_key_size"; "total_bytes";
      "compare_lengths"; "ignore"; "recover";
    ]

(* Record fields that expose public geometry of an otherwise-secret
   value (a DPF key's domain, a query's party index). *)
let public_fields = declassified_calls

(* Built-in secret sources: DPF keys, per-bucket selection bits, and the
   single-server PIR client's per-query LWE secret (Spir.Client.query
   returns both the secret and the masked query vector derived from it —
   neither may reach a branch, index, loop bound or allocation size). *)
let source_calls =
  SS.of_list
    [
      "Dpf.gen"; "Dpf.eval_bit"; "Dpf.eval_value"; "Dpf.make_subkey";
      "Server.eval_bits"; "Client.query";
    ]

(* Higher-order DPF traversals: the callback's listed parameter
   positions receive secret leaf data. *)
let hof_seeds =
  [
    ("Dpf.eval_all_bits", [ 1 ]);
    ("Dpf.eval_bits_blocked", [ 1 ]);
    ("Dpf.eval_all_seeds", [ 1; 2 ]);
    ("Dpf.eval_prefixes", [ 1; 2 ]);
  ]

(* last2 name -> positions whose taint flows into a memory index. *)
let index_sinks =
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

(* last2 name -> positions whose taint sizes an allocation. *)
let alloc_sinks =
  [
    ("Array.make", [ 0 ]); ("Array.init", [ 0 ]);
    ("Array.create_float", [ 0 ]); ("Bytes.create", [ 0 ]);
    ("Bytes.make", [ 0 ]); ("String.make", [ 0 ]);
    ("Buffer.create", [ 0 ]); ("Hashtbl.create", [ 0 ]);
  ]

(* Writer calls: taint flowing into the container upgrades the
   container's binding, so later reads see it. fst = container arg. *)
let writer_calls =
  [
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Array.set", 0);
    ("Array.unsafe_set", 0); ("Bytes.blit", 2); ("Bytes.blit_string", 2);
    ("Array.blit", 2); ("Bytes.fill", 0); ("Hashtbl.replace", 0);
    ("Hashtbl.add", 0); ("Buffer.add_string", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_char", 0); ("Queue.push", 1); ("Queue.add", 1);
  ]

let propagate_ops =
  SS.of_list
    [
      "!"; "ref"; "&&"; "||"; "not"; "+"; "-"; "*"; "/"; "mod"; "land";
      "lor"; "lxor"; "lsl"; "lsr"; "asr"; "lnot"; "="; "<>"; "<"; ">";
      "<="; ">="; "=="; "!="; "^"; "@"; "~-"; "abs"; "min"; "max"; "succ";
      "pred"; "fst"; "snd"; "compare";
    ]

(* ------------------------------------------------------------------ *)
(* Environment: mutable table with save/restore scoping                *)
(* ------------------------------------------------------------------ *)

type env = (string, entry) Hashtbl.t

let bind (env : env) x v =
  let old = Hashtbl.find_opt env x in
  Hashtbl.replace env x v;
  (x, old)

let restore (env : env) (x, old) =
  match old with Some v -> Hashtbl.replace env x v | None -> Hashtbl.remove env x

let with_binds env pairs f =
  let saved = List.map (fun (x, v) -> bind env x v) pairs in
  Fun.protect ~finally:(fun () -> List.iter (restore env) (List.rev saved)) f

let lookup_val (env : env) x =
  match Hashtbl.find_opt env x with
  | Some (Val t | Applied t) -> t
  | Some (Fn f) -> f.l_cap
  | None -> 0

(* Raise the taint of an already-bound mutable carrier (ref cell,
   Bytes/Array buffer) in place; the enclosing binding's scope restore
   still applies, so the upgrade stays local to the defining scope. *)
let upgrade ctx (env : env) x extra =
  if extra <> 0 then
    match Hashtbl.find_opt env x with
    | Some (Val old) when old lor extra <> old ->
        Hashtbl.replace env x (Val (old lor extra));
        incr ctx.mutated
    | Some (Applied old) when old lor extra <> old ->
        Hashtbl.replace env x (Applied (old lor extra));
        incr ctx.mutated
    | _ -> ()

let is_apply (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_apply _ -> true | _ -> false

let ident_of (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | _ -> None

let secret_of_name ctx n =
  if SS.mem (Syntax.last_seg n) ctx.secret_names then secret_bit else 0

let nth_opt l n = try List.nth_opt l n with _ -> None

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

(* The parameter index each call argument binds, paired with its taint.
   With the callee's parameter labels known, positional arguments fill
   the unlabelled parameters in order and a labelled argument binds the
   parameter of its label, so an omitted optional argument shifts
   nothing; without them, argument [i] binds parameter [i]. *)
let bind_args labels args taints =
  match labels with
  | None -> List.mapi (fun i t -> (i, t)) taints
  | Some labels ->
      let name = function
        | Asttypes.Nolabel -> None
        | Asttypes.Labelled l | Asttypes.Optional l -> Some l
      in
      let indexed = List.mapi (fun i l -> (i, name l)) labels in
      let rec go positional args taints =
        match (args, taints) with
        | (label, _) :: args, t :: taints -> (
            match name label with
            | None -> (
                match positional with
                | i :: rest -> (i, t) :: go rest args taints
                | [] -> go [] args taints)
            | Some n -> (
                match List.find_opt (fun (_, l) -> l = Some n) indexed with
                | Some (i, _) -> (i, t) :: go positional args taints
                | None -> go positional args taints))
        | _ -> []
      in
      go (List.filter_map (fun (i, l) -> if l = None then Some i else None) indexed) args taints

let rec eval ctx (env : env) (e : Parsetree.expression) : int =
  let sink kind t detail =
    if t <> 0 then ctx.emit kind t ~line:(Syntax.line e.pexp_loc) detail
  in
  match e.pexp_desc with
  | Pexp_ident lid ->
      let n = Syntax.name_of_lid lid.txt in
      let local =
        match lid.txt with Longident.Lident x -> lookup_val env x | _ -> 0
      in
      local lor secret_of_name ctx n
  | Pexp_constant _ -> 0
  | Pexp_let (rf, vbs, body) -> eval_let ctx env rf vbs body
  | Pexp_fun _ | Pexp_newtype _ ->
      (* A bare closure value: its taint is what it captures; the body
         is still walked so captured-secret sinks inside it report. *)
      let lf = eval_fn ctx env e in
      lf.l_cap
  | Pexp_function cases ->
      (* [function] is a one-parameter fun whose body matches on it. *)
      let lf = eval_function ctx env cases in
      lf.l_cap
  | Pexp_apply (f, args) -> eval_apply ctx env e f args
  | Pexp_match (scrut, cases) ->
      let ts = eval ctx env scrut in
      if List.length cases > 1 then sink Branch ts "match scrutinee";
      eval_cases ctx env ts cases
  | Pexp_try (b, cases) ->
      let t = eval ctx env b in
      t lor eval_cases ctx env 0 cases
  | Pexp_ifthenelse (c, t, f) ->
      let tc = eval ctx env c in
      sink Branch tc "if condition";
      (* the chosen value depends on the condition: implicit flow *)
      tc lor eval ctx env t
      lor (match f with Some f -> eval ctx env f | None -> 0)
  | Pexp_while (c, b) ->
      let tc = eval ctx env c in
      sink Loop tc "while condition";
      eval_loop_body ctx env b;
      ignore (eval ctx env c);
      0
  | Pexp_for (pat, lo, hi, _, b) ->
      let t = eval ctx env lo lor eval ctx env hi in
      sink Loop t "for-loop bound";
      let binds = List.map (fun v -> (v, Val t)) (Syntax.pattern_vars pat) in
      with_binds env binds (fun () -> eval_loop_body ctx env b);
      0
  | Pexp_sequence (a, b) ->
      ignore (eval ctx env a);
      eval ctx env b
  | Pexp_tuple es | Pexp_array es ->
      List.fold_left (fun acc e -> acc lor eval ctx env e) 0 es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      (match arg with Some a -> eval ctx env a | None -> 0)
  | Pexp_record (fs, base) ->
      let t = List.fold_left (fun acc (_, e) -> acc lor eval ctx env e) 0 fs in
      t lor (match base with Some b -> eval ctx env b | None -> 0)
  | Pexp_field (b, lid) ->
      let seg = Syntax.last_seg (Syntax.name_of_lid lid.txt) in
      let base = if SS.mem seg public_fields then 0 else eval ctx env b in
      base lor (if SS.mem seg ctx.secret_names then secret_bit else 0)
  | Pexp_setfield (r, _, v) ->
      ignore (eval ctx env r);
      ignore (eval ctx env v);
      0
  | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, e) ->
      eval { ctx with opens = Syntax.name_of_lid m.txt :: ctx.opens } env e
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_poly (e, _)
  | Pexp_open (_, e) | Pexp_lazy e | Pexp_send (e, _) ->
      eval ctx env e
  | Pexp_assert e ->
      let t = eval ctx env e in
      sink Branch t "assert condition";
      0
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) ->
      eval ctx env body
  | Pexp_letop { let_; ands; body } ->
      let t0 = eval ctx env let_.pbop_exp in
      let t =
        List.fold_left (fun acc a -> acc lor eval ctx env a.Parsetree.pbop_exp) t0 ands
      in
      let vars =
        List.concat_map
          (fun p -> Syntax.pattern_vars p)
          (let_.pbop_pat :: List.map (fun a -> a.Parsetree.pbop_pat) ands)
      in
      with_binds env (List.map (fun v -> (v, Val t)) vars) (fun () ->
          eval ctx env body)
  | Pexp_extension _ -> 0
  | _ ->
      List.fold_left
        (fun acc c -> acc lor eval ctx env c)
        0 (Syntax.shallow_children e)

and eval_cases ctx env scrut_taint cases =
  List.fold_left
    (fun acc (c : Parsetree.case) ->
      let binds =
        List.map (fun v -> (v, Val scrut_taint)) (Syntax.pattern_vars c.pc_lhs)
      in
      with_binds env binds (fun () ->
          (match c.pc_guard with
          | Some g ->
              let tg = eval ctx env g in
              if tg <> 0 then
                ctx.emit Branch tg ~line:(Syntax.line g.pexp_loc) "match guard"
          | None -> ());
          acc lor eval ctx env c.pc_rhs))
    0 cases

(* Summarise a closure: pass 1 walks the body under the definition
   environment (parameters bound to nothing) to report captured-secret
   sinks and compute the captured result taint; pass 2 re-walks it with
   fresh per-parameter bits, recording only which parameters reach
   sinks or the result — its emit forwards nothing, so nothing is
   double-reported. *)
and eval_loop_body ctx env b =
  (* Loop bodies run more than once: a [:=] late in the body can feed a
     read earlier in the next iteration.  Re-evaluate once whenever the
     first pass upgraded a mutable binding, so loop-carried taint
     reaches every use on the second pass. *)
  let before = !(ctx.mutated) in
  ignore (eval ctx env b);
  if !(ctx.mutated) <> before then ignore (eval ctx env b)

and eval_fn ctx env e =
  let params, body = Syntax.uncurry e in
  if params = [] then
    (* constraint/newtype chain with no actual fun: treat as value *)
    { l_params = []; l_labels = []; l_ret = 0; l_sink = 0; l_kinds = []; l_cap = eval ctx env body }
  else { (summarize_fn ctx env params body) with l_labels = Syntax.param_labels e }

and eval_function ctx env cases =
  (* one implicit parameter, matched immediately *)
  let param = [ "*match*" ] in
  let body_of bit =
    (* evaluate the cases with the implicit param's taint as scrutinee *)
    fun ctx env -> eval_cases ctx env bit cases
  in
  summarize_body ctx env [ param ]
    ~n_cases:(List.length cases)
    (fun ctx env bit -> (body_of bit) ctx env)

and summarize_fn ctx env params body =
  summarize_body ctx env params ~n_cases:1 (fun ctx env _bit ->
      eval ctx env body)

and summarize_body ctx env params ~n_cases run =
  let zero_binds =
    List.concat_map (fun vars -> List.map (fun v -> (v, Val 0)) vars) params
  in
  (* pass 1: captured-taint report under the outer environment *)
  let l_cap = with_binds env zero_binds (fun () -> run ctx env 0) in
  (* pass 2: per-parameter bits, recording summaries only *)
  let depth = ctx.depth + 1 in
  if depth > 3 then { l_params = params; l_labels = []; l_ret = 0; l_sink = 0; l_kinds = []; l_cap }
  else begin
    let base = 16 * depth in
    let sink_bits = ref 0 and kinds = ref [] in
    let emit kind bits ~line:_ _detail =
      let local = (bits lsr base) land param_mask in
      if local <> 0 then begin
        sink_bits := !sink_bits lor local;
        for i = 0 to 15 do
          if local land (1 lsl i) <> 0 && not (List.mem_assoc i !kinds) then
            kinds := (i, kind) :: !kinds
        done
      end
    in
    let ctx' = { ctx with emit; depth } in
    let bit_binds =
      List.concat_map
        (fun (i, vars) ->
          List.map (fun v -> (v, Val (if i < 16 then 1 lsl (base + i) else 0))) vars)
        (List.mapi (fun i vars -> (i, vars)) params)
    in
    let ret =
      with_binds env bit_binds (fun () ->
          run ctx' env (if n_cases > 1 then 1 lsl base else 0))
    in
    (* a [function] with several cases branches on its own parameter *)
    let sinks =
      if n_cases > 1 then begin
        if not (List.mem_assoc 0 !kinds) then kinds := (0, Branch) :: !kinds;
        !sink_bits lor 1
      end
      else !sink_bits
    in
    {
      l_params = params;
      l_labels = [];
      l_ret = (ret lsr base) land param_mask;
      l_sink = sinks;
      l_kinds = !kinds;
      l_cap;
    }
  end

and eval_let ctx env rf vbs body =
  (* let-bound functions get an on-the-fly summary (recursive ones see
     a provisional empty summary, then one refinement round); other
     bindings give every bound variable the RHS taint *)
  let pairs =
    List.concat_map
      (fun (vb : Parsetree.value_binding) ->
        match (vb.pvb_pat.ppat_desc, Syntax.uncurry vb.pvb_expr) with
        | Ppat_var { txt = x; _ }, (params, _) when params <> [] ->
            let lf =
              if rf = Asttypes.Recursive then begin
                let provisional =
                  Fn
                    {
                      l_params = params;
                      l_labels = [];
                      l_ret = 0;
                      l_sink = 0;
                      l_kinds = [];
                      l_cap = 0;
                    }
                in
                let saved = bind env x provisional in
                let lf1 = eval_fn ctx env vb.pvb_expr in
                Hashtbl.replace env x (Fn lf1);
                let lf2 = eval_fn ctx env vb.pvb_expr in
                restore env saved;
                lf2
              end
              else eval_fn ctx env vb.pvb_expr
            in
            [ (x, Fn lf) ]
        | Ppat_var { txt = x; _ }, _ when is_apply vb.pvb_expr ->
            [ (x, Applied (eval ctx env vb.pvb_expr)) ]
        | _ ->
            let t = eval ctx env vb.pvb_expr in
            List.map (fun v -> (v, Val t)) (Syntax.pattern_vars vb.pvb_pat))
      vbs
  in
  with_binds env pairs (fun () -> eval ctx env body)

and eval_apply ctx env e f args =
  let line = Syntax.line e.pexp_loc in
  let arg_exprs = List.map snd args in
  match Syntax.head_name f with
  | Some "@@" -> (
      match arg_exprs with
      | [ g; x ] -> eval_apply ctx env e g [ (Asttypes.Nolabel, x) ]
      | _ -> eval_unknown ctx env f args)
  | Some "|>" -> (
      match arg_exprs with
      | [ x; g ] -> eval_apply ctx env e g [ (Asttypes.Nolabel, x) ]
      | _ -> eval_unknown ctx env f args)
  | Some ":=" -> (
      match arg_exprs with
      | [ lhs; rhs ] ->
          let t = eval ctx env rhs lor eval ctx env lhs in
          (match ident_of lhs with
          | Some x -> upgrade ctx env x t
          | None -> ());
          0
      | _ -> eval_unknown ctx env f args)
  | Some name -> (
      let seg = Syntax.last_seg name in
      let names = candidates ctx name in
      (* a bare call inside the defining module (e.g. [eval_all_bits]
         within dpf.ml) also matches its qualified table entry *)
      let keys =
        List.concat_map
          (fun n ->
            if String.contains n '.' then [ Syntax.last2 n ]
            else [ Syntax.last2 n; Call_graph.module_of_path ctx.file ^ "." ^ n ])
          names
      in
      let lookup table = List.find_map (fun n -> List.assoc_opt (Syntax.last2 n) table) names in
      if SS.mem seg declassified_calls then begin
        List.iter (fun a -> ignore (eval ctx env a)) arg_exprs;
        0
      end
      else if List.exists (fun k -> SS.mem k source_calls) keys then begin
        let t = List.fold_left (fun acc a -> acc lor eval ctx env a) 0 arg_exprs in
        t lor secret_bit
      end
      else
        match List.find_map (fun k -> List.assoc_opt k hof_seeds) keys with
        | Some positions -> eval_hof ctx env ~line name positions args
        | None -> (
            let taints = List.map (eval ctx env) arg_exprs in
            let all = List.fold_left ( lor ) 0 taints in
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
                            (Printf.sprintf "%s argument %d of %s" what p name)
                      | _ -> ())
                    ps;
                  true
            in
            let is_index = check index_sinks Index "index" in
            let is_alloc = check alloc_sinks Alloc "size" in
            (* container writes upgrade the written binding *)
            (match lookup writer_calls with
            | Some cpos -> (
                match nth_opt arg_exprs cpos with
                | Some ce -> (
                    match ident_of ce with
                    | Some x -> upgrade ctx env x all
                    | None -> ())
                | None -> ())
            | None -> ());
            if is_index || is_alloc then all
            else if SS.mem seg propagate_ops then all
            else
              (* summary-based call *)
              match resolve_callee ctx env name with
              | Some (params_n, labels, ret_mask, const, sink_mask, kinds, cap, label) ->
                  let bound =
                    List.filter_map
                      (fun (i, t) -> if i < params_n then Some (i, t) else None)
                      (bind_args labels args taints)
                  in
                  List.iter
                    (fun (i, t) ->
                      if t <> 0 && sink_mask land (1 lsl i) <> 0 then
                        let kind =
                          match List.assoc_opt i kinds with
                          | Some k -> k
                          | None -> Branch
                        in
                        ctx.emit kind t ~line
                          (Printf.sprintf
                             "argument %d of %s, which feeds a %s inside it" i
                             label (sink_name kind)))
                    bound;
                  let ret =
                    List.fold_left
                      (fun acc (i, t) ->
                        if ret_mask land (1 lsl i) <> 0 then acc lor t else acc)
                      0 bound
                  in
                  ret lor const lor cap
              | None -> (
                  match Option.bind (ident_of f) (Hashtbl.find_opt env) with
                  | Some (Applied t) -> all lor t
                  | _ -> all)))
  | None ->
      (* computed callee: evaluate it (walking closure bodies), then
         propagate everything *)
      eval_unknown ctx env f args

and eval_unknown ctx env f args =
  let tf = eval ctx env f in
  List.fold_left (fun acc (_, a) -> acc lor eval ctx env a) tf args

(* A DPF traversal: the trailing callback receives secret leaf data in
   the listed positions. Literal closures are evaluated with those
   parameters seeded; named callbacks are checked via their summary. *)
and eval_hof ctx env ~line _name positions args =
  let arg_exprs = List.map snd args in
  match List.rev arg_exprs with
  | [] -> 0
  | cb :: rest ->
      List.iter (fun a -> ignore (eval ctx env a)) (List.rev rest);
      (match Syntax.uncurry cb with
      | params, body when params <> [] ->
          let binds =
            List.concat_map
              (fun (i, vars) ->
                let t = if List.mem i positions then secret_bit else 0 in
                List.map (fun v -> (v, Val t)) vars)
              (List.mapi (fun i vars -> (i, vars)) params)
          in
          with_binds env binds (fun () -> ignore (eval ctx env body))
      | _ -> (
          (* named callback: consult its summary *)
          match Syntax.head_name cb with
          | Some cb_name -> (
              match resolve_callee ctx env cb_name with
              | Some (params_n, _, _, _, sink_mask, kinds, _, label) ->
                  List.iter
                    (fun p ->
                      if p < params_n && sink_mask land (1 lsl p) <> 0 then
                        let kind =
                          match List.assoc_opt p kinds with
                          | Some k -> k
                          | None -> Branch
                        in
                        ctx.emit kind secret_bit ~line
                          (Printf.sprintf
                             "DPF leaf data reaches a %s inside callback %s"
                             (sink_name kind) label))
                    positions
              | None -> ())
          | None -> ignore (eval ctx env cb)));
      0

(* Resolve a callee to (n_params, labels, ret_mask, const, sink_mask,
   kinds, captured, label): local let-bound functions first, then the
   global table, under each enclosing local open before the bare name.
   Arguments bind by label where the labels are known (see
   [bind_args]). *)
and resolve_callee ctx env name :
    (int * Asttypes.arg_label list option * int * int * int * (int * sink) list * int * string)
    option =
  let local =
    if String.contains name '.' then None
    else
      match Hashtbl.find_opt env name with
      | Some (Fn lf) ->
          Some
            ( List.length lf.l_params,
              (if List.length lf.l_labels = List.length lf.l_params then Some lf.l_labels
               else None),
              lf.l_ret,
              0,
              lf.l_sink,
              lf.l_kinds,
              lf.l_cap,
              name )
      | _ -> None
  in
  match local with
  | Some _ -> local
  | None -> (
      match
        List.find_map (fun n -> Call_graph.resolve ctx.graph ~file:ctx.file n) (candidates ctx name)
      with
      | Some d ->
          let s = find_summary ctx d in
          Some
            ( List.length d.d_params,
              Some d.d_labels,
              s.s_ret,
              s.s_const,
              s.s_sink,
              s.s_kinds,
              0,
              d.d_name )
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

type input = { i_path : string; i_ast : Parsetree.structure; i_secrets : SS.t }

let null_emit _ _ ~line:_ _ = ()

(* Cross-file summary fixpoint: recompute every definition's summary
   until nothing grows. All updates are [lor]-monotone over a finite
   bit domain, so this terminates; the round cap is a safety net. *)
let compute_summaries graph (inputs : input list) =
  let summaries = Hashtbl.create 256 in
  let secrets_of =
    let tbl = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace tbl i.i_path i.i_secrets) inputs;
    fun path -> Option.value (Hashtbl.find_opt tbl path) ~default:SS.empty
  in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun (d : Call_graph.def) ->
        let s =
          match Hashtbl.find_opt summaries (summary_key d) with
          | Some s -> s
          | None ->
              let s = { s_ret = 0; s_const = 0; s_sink = 0; s_kinds = [] } in
              Hashtbl.replace summaries (summary_key d) s;
              s
        in
        let sink_bits = ref 0 and kinds = ref [] in
        let emit kind bits ~line:_ _ =
          let p = bits land param_mask in
          if p <> 0 then begin
            sink_bits := !sink_bits lor p;
            for i = 0 to 15 do
              if p land (1 lsl i) <> 0 && not (List.mem_assoc i !kinds) then
                kinds := (i, kind) :: !kinds
            done
          end
        in
        let ctx =
          {
            graph;
            summaries;
            secret_names = secrets_of d.d_file;
            file = d.d_file;
            emit;
            depth = 0;
            mutated = ref 0;
            opens = [];
          }
        in
        let env = Hashtbl.create 16 in
        List.iteri
          (fun i vars ->
            List.iter
              (fun v ->
                Hashtbl.replace env v (Val (if i < 16 then 1 lsl i else 0)))
              vars)
          d.d_params;
        let ret = ref (eval ctx env d.d_body) in
        let new_ret = s.s_ret lor (!ret land param_mask) in
        let new_const = s.s_const lor (!ret land secret_bit) in
        let new_sink = s.s_sink lor !sink_bits in
        if new_ret <> s.s_ret || new_const <> s.s_const || new_sink <> s.s_sink
        then begin
          s.s_ret <- new_ret;
          s.s_const <- new_const;
          s.s_sink <- new_sink;
          changed := true
        end;
        List.iter
          (fun (i, k) ->
            if not (List.mem_assoc i s.s_kinds) then
              s.s_kinds <- (i, k) :: s.s_kinds)
          !kinds)
      graph.Call_graph.defs
  done;
  summaries

(* Report mode: walk each file's module-level bindings in order with a
   persistent environment, turning secret-bit sink events into
   findings. *)
let analyze (inputs : input list) : Report.finding list =
  let graph = Call_graph.build (List.map (fun i -> (i.i_path, i.i_ast)) inputs) in
  let summaries = compute_summaries graph inputs in
  let findings = ref [] in
  let analyze_file (i : input) =
    let emit kind bits ~line detail =
      if bits land secret_bit <> 0 then
        findings :=
          {
            Report.rule = "taint";
            file = i.i_path;
            line;
            message =
              Printf.sprintf "secret-tainted value reaches %s (%s)"
                (sink_name kind) detail;
          }
          :: !findings
    in
    let ctx =
      {
        graph;
        summaries;
        secret_names = i.i_secrets;
        file = i.i_path;
        emit;
        depth = 0;
        mutated = ref 0;
        opens = [];
      }
    in
    let env = Hashtbl.create 64 in
    let rec walk_items items =
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (rf, vbs) ->
              (* persist module-level bindings: later items see them *)
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  match (vb.pvb_pat.ppat_desc, Syntax.uncurry vb.pvb_expr) with
                  | Ppat_var { txt = x; _ }, (params, _) when params <> [] ->
                      let lf =
                        if rf = Asttypes.Recursive then begin
                          let saved =
                            bind env x
                              (Fn
                                 {
                                   l_params = params;
                                   l_labels = [];
                                   l_ret = 0;
                                   l_sink = 0;
                                   l_kinds = [];
                                   l_cap = 0;
                                 })
                          in
                          let lf1 = eval_fn ctx env vb.pvb_expr in
                          Hashtbl.replace env x (Fn lf1);
                          let lf2 = eval_fn ctx env vb.pvb_expr in
                          ignore saved;
                          lf2
                        end
                        else eval_fn ctx env vb.pvb_expr
                      in
                      Hashtbl.replace env x (Fn lf)
                  | _ ->
                      let t = eval ctx env vb.pvb_expr in
                      List.iter
                        (fun v -> Hashtbl.replace env v (Val t))
                        (Syntax.pattern_vars vb.pvb_pat))
                vbs
          | Pstr_eval (e, _) -> ignore (eval ctx env e)
          | Pstr_module mb -> (
              match mb.pmb_expr.pmod_desc with
              | Pmod_structure s -> walk_items s
              | Pmod_constraint ({ pmod_desc = Pmod_structure s; _ }, _) ->
                  walk_items s
              | _ -> ())
          | Pstr_recmodule mbs ->
              List.iter
                (fun (mb : Parsetree.module_binding) ->
                  match mb.pmb_expr.pmod_desc with
                  | Pmod_structure s -> walk_items s
                  | _ -> ())
                mbs
          | _ -> ())
        items
    in
    walk_items i.i_ast
  in
  List.iter analyze_file inputs;
  List.sort_uniq compare !findings
