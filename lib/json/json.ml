type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over a string with an index cursor.       *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | Some x -> fail cur (Printf.sprintf "expected %c, found %c" c x)
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | Some _ | None -> ()

let expect_keyword cur kw value =
  let n = String.length kw in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = kw then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" kw)

let hex_value cur c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail cur "invalid \\u escape"

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_u16 cur =
  if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek cur with
    | Some c -> v := (!v lsl 4) lor hex_value cur c
    | None -> fail cur "truncated \\u escape");
    advance cur
  done;
  !v

let parse_string_body cur =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' ->
        advance cur;
        Buffer.contents buf
    | Some '\\' ->
        advance cur;
        (match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\x0c'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let hi = parse_u16 cur in
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  (* surrogate pair *)
                  expect cur '\\';
                  expect cur 'u';
                  let lo = parse_u16 cur in
                  if lo < 0xDC00 || lo > 0xDFFF then fail cur "invalid low surrogate";
                  let code = 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00) in
                  add_utf8 buf code
                end
                else add_utf8 buf hi
            | _ -> fail cur "invalid escape character"));
        go ()
    | Some c when Char.code c < 0x20 -> fail cur "control character in string"
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let is_number_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec consume () =
    match peek cur with
    | Some c when is_number_char c ->
        advance cur;
        consume ()
    | Some _ | None -> ()
  in
  consume ();
  let text = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> fail cur (Printf.sprintf "invalid number %S" text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' -> parse_obj cur
  | Some '[' -> parse_list cur
  | Some '"' ->
      advance cur;
      String (parse_string_body cur)
  | Some 't' -> expect_keyword cur "true" (Bool true)
  | Some 'f' -> expect_keyword cur "false" (Bool false)
  | Some 'n' -> expect_keyword cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

and parse_obj cur =
  expect cur '{';
  skip_ws cur;
  match peek cur with
  | Some '}' ->
      advance cur;
      Obj []
  | _ ->
      let rec fields acc =
        skip_ws cur;
        expect cur '"';
        let key = parse_string_body cur in
        skip_ws cur;
        expect cur ':';
        let value = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
            advance cur;
            fields ((key, value) :: acc)
        | Some '}' ->
            advance cur;
            Obj (List.rev ((key, value) :: acc))
        | Some c -> fail cur (Printf.sprintf "expected , or } in object, found %c" c)
        | None -> fail cur "unterminated object"
      in
      fields []

and parse_list cur =
  expect cur '[';
  skip_ws cur;
  match peek cur with
  | Some ']' ->
      advance cur;
      List []
  | _ ->
      let rec elements acc =
        let value = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
            advance cur;
            elements (value :: acc)
        | Some ']' ->
            advance cur;
            List (List.rev (value :: acc))
        | Some c -> fail cur (Printf.sprintf "expected , or ] in array, found %c" c)
        | None -> fail cur "unterminated array"
      in
      elements []

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage after value";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\x0c' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec render depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number f -> Buffer.add_string buf (number_to_string f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            render (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            escape_string buf k;
            Buffer.add_char buf ':';
            if pretty then Buffer.add_char buf ' ';
            render (depth + 1) item)
          fields;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf '}'
  in
  render 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member k v =
  match v with
  | Obj fields -> ( match List.assoc_opt k fields with Some x -> x | None -> Null)
  | _ -> invalid_arg "Json.member: not an object"

let member_opt k v = match v with Obj fields -> List.assoc_opt k fields | _ -> None

let get_string = function String s -> s | _ -> invalid_arg "Json.get_string"

let get_int = function
  | Number f when Float.is_integer f -> int_of_float f
  | _ -> invalid_arg "Json.get_int"

let get_bool = function Bool b -> b | _ -> invalid_arg "Json.get_bool"
let get_list = function List l -> l | _ -> invalid_arg "Json.get_list"

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Number x, Number y -> x = y
  | String x, String y -> String.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      let sort = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) in
      let xs = sort xs and ys = sort ys in
      List.length xs = List.length ys
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) xs ys
  | (Null | Bool _ | Number _ | String _ | List _ | Obj _), _ -> false
