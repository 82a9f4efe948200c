module Json = Lw_json.Json

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | NUMBER of float
  | STRING of string
  | KW_FN | KW_LET | KW_IF | KW_ELSE | KW_FOR | KW_IN | KW_WHILE | KW_RETURN
  | KW_TRUE | KW_FALSE | KW_NULL
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | COLON | DOT
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | ASSIGN | EQEQ | NEQ | LT | LE | GT | GE
  | ANDAND | OROR | BANG
  | EOF

type error = { line : int; message : string }

exception Syntax of error

let syntax line fmt = Printf.ksprintf (fun message -> raise (Syntax { line; message })) fmt

let keyword = function
  | "fn" -> Some KW_FN
  | "let" -> Some KW_LET
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "for" -> Some KW_FOR
  | "while" -> Some KW_WHILE
  | "in" -> Some KW_IN
  | "return" -> Some KW_RETURN
  | "true" -> Some KW_TRUE
  | "false" -> Some KW_FALSE
  | "null" -> Some KW_NULL
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let lex src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let pos = ref 0 in
  let emit t = tokens := (t, !line) :: !tokens in
  let peek off = if !pos + off < n then Some src.[!pos + off] else None in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '/' && peek 1 = Some '/' then begin
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      let word = String.sub src start (!pos - start) in
      emit (match keyword word with Some kw -> kw | None -> IDENT word)
    end
    else if is_digit c then begin
      let start = !pos in
      while
        !pos < n
        && (is_digit src.[!pos] || src.[!pos] = '.'
           || ((src.[!pos] = 'e' || src.[!pos] = 'E') && !pos > start)
           || ((src.[!pos] = '-' || src.[!pos] = '+')
              && !pos > start
              && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
      do
        incr pos
      done;
      let text = String.sub src start (!pos - start) in
      match float_of_string_opt text with
      | Some f -> emit (NUMBER f)
      | None -> syntax !line "bad number literal %S" text
    end
    else if c = '"' then begin
      incr pos;
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then syntax !line "unterminated string"
        else begin
          let c = src.[!pos] in
          incr pos;
          if c = '"' then ()
          else if c = '\\' then begin
            if !pos >= n then syntax !line "unterminated escape";
            let e = src.[!pos] in
            incr pos;
            (match e with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | _ -> syntax !line "unknown escape \\%c" e);
            go ()
          end
          else begin
            if c = '\n' then incr line;
            Buffer.add_char buf c;
            go ()
          end
        end
      in
      go ();
      emit (STRING (Buffer.contents buf))
    end
    else begin
      let two t =
        emit t;
        pos := !pos + 2
      in
      let one t =
        emit t;
        incr pos
      in
      match (c, peek 1) with
      | '=', Some '=' -> two EQEQ
      | '!', Some '=' -> two NEQ
      | '<', Some '=' -> two LE
      | '>', Some '=' -> two GE
      | '&', Some '&' -> two ANDAND
      | '|', Some '|' -> two OROR
      | '=', _ -> one ASSIGN
      | '!', _ -> one BANG
      | '<', _ -> one LT
      | '>', _ -> one GT
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | '{', _ -> one LBRACE
      | '}', _ -> one RBRACE
      | '[', _ -> one LBRACKET
      | ']', _ -> one RBRACKET
      | ',', _ -> one COMMA
      | ';', _ -> one SEMI
      | ':', _ -> one COLON
      | '.', _ -> one DOT
      | '+', _ -> one PLUS
      | '-', _ -> one MINUS
      | '*', _ -> one STAR
      | '/', _ -> one SLASH
      | '%', _ -> one PERCENT
      | _ -> syntax !line "unexpected character %C" c
    end
  done;
  emit EOF;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* AST and parser                                                      *)
(* ------------------------------------------------------------------ *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Not | Neg

type expr =
  | Lit of Json.t
  | Var of string
  | ListE of expr list
  | ObjE of (string * expr) list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Index of expr * expr

type stmt =
  | SLet of string * expr
  | SAssign of string * expr
  | SIf of expr * block * block
  | SFor of string * expr * block
  | SWhile of expr * block
  | SReturn of expr
  | SExpr of expr

and block = stmt list

type fn_def = { params : string list; body : block }

type program = (string * fn_def) list

type parser_state = { mutable toks : (token * int) list }

let cur p = match p.toks with [] -> (EOF, 0) | t :: _ -> t
let cur_line p = snd (cur p)
let advance p = match p.toks with [] -> () | _ :: rest -> p.toks <- rest

let eat p tok name =
  let t, line = cur p in
  if t = tok then advance p else syntax line "expected %s" name

let eat_ident p what =
  match cur p with
  | IDENT name, _ ->
      advance p;
      name
  | _, line -> syntax line "expected %s" what

let rec parse_expr p = parse_or p

and parse_or p =
  let lhs = ref (parse_and p) in
  while fst (cur p) = OROR do
    advance p;
    lhs := Binop (Or, !lhs, parse_and p)
  done;
  !lhs

and parse_and p =
  let lhs = ref (parse_equality p) in
  while fst (cur p) = ANDAND do
    advance p;
    lhs := Binop (And, !lhs, parse_equality p)
  done;
  !lhs

and parse_equality p =
  let lhs = ref (parse_comparison p) in
  let rec go () =
    match fst (cur p) with
    | EQEQ ->
        advance p;
        lhs := Binop (Eq, !lhs, parse_comparison p);
        go ()
    | NEQ ->
        advance p;
        lhs := Binop (Ne, !lhs, parse_comparison p);
        go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_comparison p =
  let lhs = ref (parse_additive p) in
  let rec go () =
    let op =
      match fst (cur p) with
      | LT -> Some Lt
      | LE -> Some Le
      | GT -> Some Gt
      | GE -> Some Ge
      | _ -> None
    in
    match op with
    | Some op ->
        advance p;
        lhs := Binop (op, !lhs, parse_additive p);
        go ()
    | None -> ()
  in
  go ();
  !lhs

and parse_additive p =
  let lhs = ref (parse_multiplicative p) in
  let rec go () =
    match fst (cur p) with
    | PLUS ->
        advance p;
        lhs := Binop (Add, !lhs, parse_multiplicative p);
        go ()
    | MINUS ->
        advance p;
        lhs := Binop (Sub, !lhs, parse_multiplicative p);
        go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_multiplicative p =
  let lhs = ref (parse_unary p) in
  let rec go () =
    let op =
      match fst (cur p) with STAR -> Some Mul | SLASH -> Some Div | PERCENT -> Some Mod | _ -> None
    in
    match op with
    | Some op ->
        advance p;
        lhs := Binop (op, !lhs, parse_unary p);
        go ()
    | None -> ()
  in
  go ();
  !lhs

and parse_unary p =
  match fst (cur p) with
  | BANG ->
      advance p;
      Unop (Not, parse_unary p)
  | MINUS ->
      advance p;
      Unop (Neg, parse_unary p)
  | _ -> parse_postfix p

and parse_postfix p =
  let base = parse_primary p in
  let rec go e =
    match fst (cur p) with
    | LBRACKET ->
        advance p;
        let idx = parse_expr p in
        eat p RBRACKET "']'";
        go (Index (e, idx))
    | DOT ->
        advance p;
        let field = eat_ident p "field name after '.'" in
        go (Index (e, Lit (Json.String field)))
    | LPAREN -> (
        match e with
        | Var name ->
            advance p;
            let args = parse_args p in
            go (Call (name, args))
        | _ -> syntax (cur_line p) "only named functions can be called")
    | _ -> e
  in
  go base

and parse_args p =
  if fst (cur p) = RPAREN then begin
    advance p;
    []
  end
  else begin
    let rec go acc =
      let e = parse_expr p in
      match fst (cur p) with
      | COMMA ->
          advance p;
          go (e :: acc)
      | RPAREN ->
          advance p;
          List.rev (e :: acc)
      | _ -> syntax (cur_line p) "expected ',' or ')' in arguments"
    in
    go []
  end

and parse_primary p =
  let t, line = cur p in
  match t with
  | NUMBER f ->
      advance p;
      Lit (Json.Number f)
  | STRING s ->
      advance p;
      Lit (Json.String s)
  | KW_TRUE ->
      advance p;
      Lit (Json.Bool true)
  | KW_FALSE ->
      advance p;
      Lit (Json.Bool false)
  | KW_NULL ->
      advance p;
      Lit Json.Null
  | IDENT name ->
      advance p;
      Var name
  | LPAREN ->
      advance p;
      let e = parse_expr p in
      eat p RPAREN "')'";
      e
  | LBRACKET ->
      advance p;
      if fst (cur p) = RBRACKET then begin
        advance p;
        ListE []
      end
      else begin
        let rec go acc =
          let e = parse_expr p in
          match fst (cur p) with
          | COMMA ->
              advance p;
              go (e :: acc)
          | RBRACKET ->
              advance p;
              ListE (List.rev (e :: acc))
          | _ -> syntax (cur_line p) "expected ',' or ']' in list"
        in
        go []
      end
  | LBRACE ->
      advance p;
      if fst (cur p) = RBRACE then begin
        advance p;
        ObjE []
      end
      else begin
        let field () =
          let key =
            match cur p with
            | STRING s, _ ->
                advance p;
                s
            | IDENT s, _ ->
                advance p;
                s
            | _, line -> syntax line "expected object key"
          in
          eat p COLON "':'";
          (key, parse_expr p)
        in
        let rec go acc =
          let f = field () in
          match fst (cur p) with
          | COMMA ->
              advance p;
              go (f :: acc)
          | RBRACE ->
              advance p;
              ObjE (List.rev (f :: acc))
          | _ -> syntax (cur_line p) "expected ',' or '}' in object"
        in
        go []
      end
  | _ -> syntax line "expected an expression"

let rec parse_block p =
  eat p LBRACE "'{'";
  let rec go acc =
    if fst (cur p) = RBRACE then begin
      advance p;
      List.rev acc
    end
    else go (parse_stmt p :: acc)
  in
  go []

and parse_stmt p =
  match cur p with
  | KW_LET, _ ->
      advance p;
      let name = eat_ident p "variable name" in
      eat p ASSIGN "'='";
      let e = parse_expr p in
      eat p SEMI "';'";
      SLet (name, e)
  | KW_RETURN, _ ->
      advance p;
      let e = parse_expr p in
      eat p SEMI "';'";
      SReturn e
  | KW_IF, _ ->
      advance p;
      eat p LPAREN "'('";
      let cond = parse_expr p in
      eat p RPAREN "')'";
      let then_b = parse_block p in
      let else_b =
        if fst (cur p) = KW_ELSE then begin
          advance p;
          if fst (cur p) = KW_IF then [ parse_stmt p ] else parse_block p
        end
        else []
      in
      SIf (cond, then_b, else_b)
  | KW_WHILE, _ ->
      advance p;
      eat p LPAREN "'('";
      let cond = parse_expr p in
      eat p RPAREN "')'";
      SWhile (cond, parse_block p)
  | KW_FOR, _ ->
      advance p;
      eat p LPAREN "'('";
      let var = eat_ident p "loop variable" in
      eat p KW_IN "'in'";
      let e = parse_expr p in
      eat p RPAREN "')'";
      SFor (var, e, parse_block p)
  | IDENT name, _ when (match p.toks with _ :: (ASSIGN, _) :: _ -> true | _ -> false) ->
      advance p;
      advance p;
      let e = parse_expr p in
      eat p SEMI "';'";
      SAssign (name, e)
  | _ ->
      let e = parse_expr p in
      eat p SEMI "';'";
      SExpr e

let parse_fn p =
  eat p KW_FN "'fn'";
  let name = eat_ident p "function name" in
  eat p LPAREN "'('";
  let params =
    if fst (cur p) = RPAREN then begin
      advance p;
      []
    end
    else begin
      let rec go acc =
        let x = eat_ident p "parameter name" in
        match fst (cur p) with
        | COMMA ->
            advance p;
            go (x :: acc)
        | RPAREN ->
            advance p;
            List.rev (x :: acc)
        | _ -> syntax (cur_line p) "expected ',' or ')' in parameters"
      in
      go []
    end
  in
  (name, { params; body = parse_block p })

let parse src =
  match
    let p = { toks = lex src } in
    let rec go acc =
      match fst (cur p) with
      | EOF -> List.rev acc
      | KW_FN ->
          let name, def = parse_fn p in
          if List.mem_assoc name acc then syntax (cur_line p) "duplicate function %s" name;
          go ((name, def) :: acc)
      | _ -> syntax (cur_line p) "expected 'fn' at top level"
    in
    go []
  with
  | fns -> Ok fns
  | exception Syntax e -> Error e

let has_function p name = List.mem_assoc name p

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)
(* ------------------------------------------------------------------ *)

type effect_ = Store of string * Json.t

exception Runtime_error of string
exception Out_of_gas
exception Return_exc of Json.t

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type state = {
  program : program;
  mutable gas : int;
  mutable effects : effect_ list; (* reversed *)
  mutable depth : int;
}

let burn st =
  st.gas <- st.gas - 1;
  if st.gas <= 0 then raise Out_of_gas

type scope = (string, Json.t) Hashtbl.t

let lookup scopes name =
  let rec go = function
    | [] -> fail "unbound variable %s" name
    | (s : scope) :: rest -> ( match Hashtbl.find_opt s name with Some v -> v | None -> go rest)
  in
  go scopes

let assign scopes name v =
  let rec go = function
    | [] -> fail "assignment to undeclared variable %s" name
    | (s : scope) :: rest -> if Hashtbl.mem s name then Hashtbl.replace s name v else go rest
  in
  go scopes

let type_name = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Number _ -> "number"
  | Json.String _ -> "string"
  | Json.List _ -> "list"
  | Json.Obj _ -> "object"

let as_number = function Json.Number f -> f | v -> fail "expected number, got %s" (type_name v)
let as_string = function Json.String s -> s | v -> fail "expected string, got %s" (type_name v)
let as_bool = function Json.Bool b -> b | v -> fail "expected bool, got %s" (type_name v)
let as_list = function Json.List l -> l | v -> fail "expected list, got %s" (type_name v)
let as_obj = function Json.Obj o -> o | v -> fail "expected object, got %s" (type_name v)

let as_int v =
  let f = as_number v in
  if Float.is_integer f then int_of_float f else fail "expected integer, got %g" f

let to_display = function
  | Json.String s -> s
  | Json.Number f -> if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f
  | Json.Bool b -> string_of_bool b
  | Json.Null -> "null"
  | (Json.List _ | Json.Obj _) as v -> Json.to_string v

let num_binop op a b =
  match op with
  | Add -> Json.Number (a +. b)
  | Sub -> Json.Number (a -. b)
  | Mul -> Json.Number (a *. b)
  | Div -> if b = 0. then fail "division by zero" else Json.Number (a /. b)
  | Mod -> if b = 0. then fail "modulo by zero" else Json.Number (Float.rem a b)
  | Lt -> Json.Bool (a < b)
  | Le -> Json.Bool (a <= b)
  | Gt -> Json.Bool (a > b)
  | Ge -> Json.Bool (a >= b)
  | Eq | Ne | And | Or -> assert false

(* ---- builtins ---- *)

let substr s start len =
  let n = String.length s in
  let start = max 0 (min start n) in
  let len = max 0 (min len (n - start)) in
  String.sub s start len

let builtin st name args =
  let arity k = if List.length args <> k then fail "%s expects %d argument(s)" name k in
  let arg i = List.nth args i in
  match name with
  | "len" -> (
      arity 1;
      match arg 0 with
      | Json.String s -> Json.Number (float_of_int (String.length s))
      | Json.List l -> Json.Number (float_of_int (List.length l))
      | Json.Obj o -> Json.Number (float_of_int (List.length o))
      | v -> fail "len of %s" (type_name v))
  | "str" ->
      arity 1;
      Json.String (to_display (arg 0))
  | "num" -> (
      arity 1;
      match arg 0 with
      | Json.Number _ as v -> v
      | Json.String s -> (
          match float_of_string_opt (String.trim s) with
          | Some f -> Json.Number f
          | None -> Json.Null)
      | v -> fail "num of %s" (type_name v))
  | "floor" ->
      arity 1;
      Json.Number (Float.floor (as_number (arg 0)))
  | "abs" ->
      arity 1;
      Json.Number (Float.abs (as_number (arg 0)))
  | "min" ->
      arity 2;
      Json.Number (Float.min (as_number (arg 0)) (as_number (arg 1)))
  | "max" ->
      arity 2;
      Json.Number (Float.max (as_number (arg 0)) (as_number (arg 1)))
  | "split" ->
      arity 2;
      let s = as_string (arg 0) and sep = as_string (arg 1) in
      if String.length sep <> 1 then fail "split expects a 1-character separator";
      Json.List (List.map (fun x -> Json.String x) (String.split_on_char sep.[0] s))
  | "join" ->
      arity 2;
      Json.String (String.concat (as_string (arg 1)) (List.map as_string (as_list (arg 0))))
  | "contains" -> (
      arity 2;
      match arg 0 with
      | Json.List l -> Json.Bool (List.exists (Json.equal (arg 1)) l)
      | Json.String s ->
          let sub = as_string (arg 1) in
          let n = String.length s and m = String.length sub in
          let rec go i = if i + m > n then false else String.sub s i m = sub || go (i + 1) in
          Json.Bool (m = 0 || go 0)
      | v -> fail "contains on %s" (type_name v))
  | "starts_with" ->
      arity 2;
      let s = as_string (arg 0) and p = as_string (arg 1) in
      Json.Bool (String.length p <= String.length s && String.sub s 0 (String.length p) = p)
  | "ends_with" ->
      arity 2;
      let s = as_string (arg 0) and p = as_string (arg 1) in
      let n = String.length s and m = String.length p in
      Json.Bool (m <= n && String.sub s (n - m) m = p)
  | "lower" ->
      arity 1;
      Json.String (String.lowercase_ascii (as_string (arg 0)))
  | "upper" ->
      arity 1;
      Json.String (String.uppercase_ascii (as_string (arg 0)))
  | "trim" ->
      arity 1;
      Json.String (String.trim (as_string (arg 0)))
  | "substr" ->
      arity 3;
      Json.String (substr (as_string (arg 0)) (as_int (arg 1)) (as_int (arg 2)))
  | "replace" ->
      arity 3;
      let s = as_string (arg 0) and a = as_string (arg 1) and b = as_string (arg 2) in
      if a = "" then fail "replace of empty string";
      let buf = Buffer.create (String.length s) in
      let m = String.length a in
      let i = ref 0 in
      while !i < String.length s do
        if !i + m <= String.length s && String.sub s !i m = a then begin
          Buffer.add_string buf b;
          i := !i + m
        end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      Json.String (Buffer.contents buf)
  | "json_parse" -> (
      arity 1;
      match Json.of_string_opt (as_string (arg 0)) with Some v -> v | None -> Json.Null)
  | "json_str" ->
      arity 1;
      Json.String (Json.to_string (arg 0))
  | "keys" ->
      arity 1;
      Json.List (List.map (fun (k, _) -> Json.String k) (as_obj (arg 0)))
  | "has" ->
      arity 2;
      Json.Bool (List.mem_assoc (as_string (arg 1)) (as_obj (arg 0)))
  | "get" -> (
      arity 3;
      match arg 0 with
      | Json.Obj o -> (
          match List.assoc_opt (as_string (arg 1)) o with
          | Some Json.Null | None -> arg 2
          | Some v -> v)
      | Json.Null -> arg 2
      | v -> fail "get on %s" (type_name v))
  | "set" ->
      arity 3;
      let o = as_obj (arg 0) and k = as_string (arg 1) in
      Json.Obj ((k, arg 2) :: List.remove_assoc k o)
  | "push" ->
      arity 2;
      Json.List (as_list (arg 0) @ [ arg 1 ])
  | "concat" ->
      arity 2;
      Json.List (as_list (arg 0) @ as_list (arg 1))
  | "slice" ->
      arity 3;
      let l = as_list (arg 0) and start = as_int (arg 1) and len = as_int (arg 2) in
      let a = Array.of_list l in
      let n = Array.length a in
      let start = max 0 (min start n) in
      let len = max 0 (min len (n - start)) in
      Json.List (Array.to_list (Array.sub a start len))
  | "range" ->
      arity 1;
      let n = as_int (arg 0) in
      if n < 0 || n > 100000 then fail "range out of bounds";
      Json.List (List.init n (fun i -> Json.Number (float_of_int i)))
  | "reverse" ->
      arity 1;
      Json.List (List.rev (as_list (arg 0)))
  | "sort" -> (
      arity 1;
      (* homogeneous lists of numbers or strings, ascending *)
      match as_list (arg 0) with
      | [] -> Json.List []
      | Json.Number _ :: _ as items ->
          Json.List
            (List.sort compare (List.map (fun v -> Json.Number (as_number v)) items))
      | Json.String _ :: _ as items ->
          Json.List
            (List.map
               (fun s -> Json.String s)
               (List.sort String.compare (List.map as_string items)))
      | v :: _ -> fail "sort expects numbers or strings, got %s" (type_name v))
  | "index_of" ->
      arity 2;
      let rec find i = function
        | [] -> Json.Number (-1.)
        | x :: rest -> if Json.equal x (arg 1) then Json.Number (float_of_int i) else find (i + 1) rest
      in
      find 0 (as_list (arg 0))
  | "first" -> (
      arity 1;
      match as_list (arg 0) with [] -> Json.Null | x :: _ -> x)
  | "last" -> (
      arity 1;
      match List.rev (as_list (arg 0)) with [] -> Json.Null | x :: _ -> x)
  | "typeof" ->
      arity 1;
      Json.String (type_name (arg 0))
  | "store" ->
      arity 2;
      st.effects <- Store (as_string (arg 0), arg 1) :: st.effects;
      Json.Null
  | _ -> fail "unknown function %s" name

(* ---- expression / statement evaluation ---- *)

let max_call_depth = 64

let rec eval st scopes expr =
  burn st;
  match expr with
  | Lit v -> v
  | Var name -> lookup scopes name
  | ListE items -> Json.List (List.map (eval st scopes) items)
  | ObjE fields -> Json.Obj (List.map (fun (k, e) -> (k, eval st scopes e)) fields)
  | Unop (Not, e) -> Json.Bool (not (as_bool (eval st scopes e)))
  | Unop (Neg, e) -> Json.Number (-.as_number (eval st scopes e))
  | Binop (And, a, b) ->
      if as_bool (eval st scopes a) then Json.Bool (as_bool (eval st scopes b)) else Json.Bool false
  | Binop (Or, a, b) ->
      if as_bool (eval st scopes a) then Json.Bool true else Json.Bool (as_bool (eval st scopes b))
  | Binop (Eq, a, b) -> Json.Bool (Json.equal (eval st scopes a) (eval st scopes b))
  | Binop (Ne, a, b) -> Json.Bool (not (Json.equal (eval st scopes a) (eval st scopes b)))
  | Binop (Add, a, b) -> (
      let va = eval st scopes a and vb = eval st scopes b in
      match (va, vb) with
      | Json.Number x, Json.Number y -> Json.Number (x +. y)
      | (Json.String _, _ | _, Json.String _) -> Json.String (to_display va ^ to_display vb)
      | _ -> fail "cannot add %s and %s" (type_name va) (type_name vb))
  | Binop (((Sub | Mul | Div | Mod | Lt | Le | Gt | Ge) as op), a, b) -> (
      let va = eval st scopes a and vb = eval st scopes b in
      match (op, va, vb) with
      | (Lt | Le | Gt | Ge), Json.String x, Json.String y ->
          let c = String.compare x y in
          Json.Bool
            (match op with
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0
            | _ -> assert false)
      | _ -> num_binop op (as_number va) (as_number vb))
  | Index (e, idx) -> (
      let v = eval st scopes e and i = eval st scopes idx in
      match (v, i) with
      | Json.List l, Json.Number _ ->
          let i = as_int i in
          if i >= 0 && i < List.length l then List.nth l i else Json.Null
      | Json.Obj o, Json.String k -> ( match List.assoc_opt k o with Some v -> v | None -> Json.Null)
      | Json.Null, _ -> Json.Null
      | _ -> fail "cannot index %s with %s" (type_name v) (type_name i))
  | Call (name, args) ->
      let vals = List.map (eval st scopes) args in
      call st name vals

and call st name vals =
  match List.assoc_opt name st.program with
  | Some def ->
      if List.length vals <> List.length def.params then
        fail "%s expects %d argument(s), got %d" name (List.length def.params) (List.length vals);
      if st.depth >= max_call_depth then fail "call depth exceeded";
      st.depth <- st.depth + 1;
      let scope : scope = Hashtbl.create 8 in
      List.iter2 (fun p v -> Hashtbl.replace scope p v) def.params vals;
      let result =
        match exec_block st [ scope ] def.body with
        | () -> Json.Null
        | exception Return_exc v -> v
      in
      st.depth <- st.depth - 1;
      result
  | None -> builtin st name vals

and exec_block st scopes block =
  let scope : scope = Hashtbl.create 8 in
  let scopes = scope :: scopes in
  List.iter (exec_stmt st scopes) block

and exec_stmt st scopes stmt =
  burn st;
  match stmt with
  | SLet (name, e) -> (
      match scopes with
      | scope :: _ -> Hashtbl.replace scope name (eval st scopes e)
      | [] -> assert false)
  | SAssign (name, e) -> assign scopes name (eval st scopes e)
  | SReturn e -> raise (Return_exc (eval st scopes e))
  | SExpr e -> ignore (eval st scopes e)
  | SIf (cond, then_b, else_b) ->
      if as_bool (eval st scopes cond) then exec_block st scopes then_b
      else exec_block st scopes else_b
  | SWhile (cond, body) ->
      (* gas bounds the iteration count, so hostile code cannot spin *)
      while as_bool (eval st scopes cond) do
        burn st;
        exec_block st scopes body
      done
  | SFor (var, e, body) ->
      let items = as_list (eval st scopes e) in
      List.iter
        (fun item ->
          burn st;
          let scope : scope = Hashtbl.create 4 in
          Hashtbl.replace scope var item;
          exec_block st (scope :: scopes) body)
        items

let run ?(gas = 200_000) program ~fn ~args =
  if not (has_function program fn) then Error (Printf.sprintf "no function %s" fn)
  else begin
    let st = { program; gas; effects = []; depth = 0 } in
    match call st fn args with
    | v -> Ok (v, List.rev st.effects)
    | exception Runtime_error m -> Error m
    | exception Out_of_gas -> Error "out of gas"
  end
