open Lightweb
module Json = Lw_json.Json

let run_ok ?gas src fn args =
  match Lightscript.parse src with
  | Error e -> Alcotest.fail (Format.asprintf "parse: %a" Lightscript.pp_error e)
  | Ok p -> (
      match Lightscript.run ?gas p ~fn ~args with
      | Ok (v, effects) -> (v, effects)
      | Error e -> Alcotest.fail ("run: " ^ e))

let run_err ?gas src fn args =
  match Lightscript.parse src with
  | Error e -> Alcotest.fail (Format.asprintf "parse: %a" Lightscript.pp_error e)
  | Ok p -> (
      match Lightscript.run ?gas p ~fn ~args with
      | Ok _ -> Alcotest.fail "expected runtime error"
      | Error e -> e)

let value_eq =
  Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (Json.to_string v)) Json.equal
let check_value msg want (got, _) = Alcotest.check value_eq msg want got

(* ---------------- parsing ---------------- *)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Lightscript.parse src with
      | Ok _ -> Alcotest.fail (Printf.sprintf "should not parse: %s" src)
      | Error _ -> ())
    [
      "fn";
      "fn f( { }";
      "fn f() { let; }";
      "fn f() { return 1 }";
      "let x = 1;";
      "fn f() { if true { } }";
      "fn f() { x[1 = 2; }";
      "fn f() {} fn f() {}";
      "fn f() { \"unterminated }";
      "fn f() { 1 +; }";
      "fn f() { (1)(2); }";
    ]

let test_function_listing () =
  match Lightscript.parse "fn plan(p, s) { return []; } fn render(p, s, d) { return \"\"; }" with
  | Error _ -> Alcotest.fail "parse"
  | Ok p ->
      Alcotest.(check bool) "has plan" true (Lightscript.has_function p "plan");
      Alcotest.(check bool) "no foo" false (Lightscript.has_function p "foo")

(* ---------------- arithmetic & logic ---------------- *)

let test_arithmetic () =
  check_value "precedence" (Json.Number 14.) (run_ok "fn f() { return 2 + 3 * 4; }" "f" []);
  check_value "parens" (Json.Number 20.) (run_ok "fn f() { return (2 + 3) * 4; }" "f" []);
  check_value "div" (Json.Number 2.5) (run_ok "fn f() { return 5 / 2; }" "f" []);
  check_value "mod" (Json.Number 1.) (run_ok "fn f() { return 7 % 2; }" "f" []);
  check_value "neg" (Json.Number (-3.)) (run_ok "fn f() { return -3; }" "f" []);
  check_value "unary chain" (Json.Number 3.) (run_ok "fn f() { return --3; }" "f" []);
  Alcotest.(check string) "div by zero" "division by zero" (run_err "fn f() { return 1/0; }" "f" [])

let test_comparison_and_logic () =
  check_value "lt" (Json.Bool true) (run_ok "fn f() { return 1 < 2; }" "f" []);
  check_value "string cmp" (Json.Bool true) (run_ok {|fn f() { return "abc" < "abd"; }|} "f" []);
  check_value "eq deep" (Json.Bool true) (run_ok {|fn f() { return [1,{"a":2}] == [1,{"a":2}]; }|} "f" []);
  check_value "ne" (Json.Bool true) (run_ok "fn f() { return 1 != 2; }" "f" []);
  check_value "and short" (Json.Bool false) (run_ok "fn f() { return false && (1/0 == 0); }" "f" []);
  check_value "or short" (Json.Bool true) (run_ok "fn f() { return true || (1/0 == 0); }" "f" []);
  check_value "not" (Json.Bool false) (run_ok "fn f() { return !true; }" "f" [])

let test_string_ops () =
  check_value "concat" (Json.String "ab12") (run_ok {|fn f() { return "ab" + 12; }|} "f" []);
  check_value "num concat str" (Json.String "3x") (run_ok {|fn f() { return 3 + "x"; }|} "f" []);
  Alcotest.(check bool) "add bool fails" true
    (String.length (run_err "fn f() { return true + 1; }" "f" []) > 0)

(* ---------------- control flow ---------------- *)

let test_if_else () =
  let src =
    {|fn sign(n) {
        if (n > 0) { return "pos"; }
        else if (n < 0) { return "neg"; }
        else { return "zero"; }
      }|}
  in
  check_value "pos" (Json.String "pos") (run_ok src "sign" [ Json.Number 5. ]);
  check_value "neg" (Json.String "neg") (run_ok src "sign" [ Json.Number (-5.) ]);
  check_value "zero" (Json.String "zero") (run_ok src "sign" [ Json.Number 0. ])

let test_for_loop () =
  let src =
    {|fn sum(items) {
        let total = 0;
        for (x in items) { total = total + x; }
        return total;
      }|}
  in
  check_value "sum" (Json.Number 10.)
    (run_ok src "sum" [ Json.List [ Json.Number 1.; Json.Number 2.; Json.Number 3.; Json.Number 4. ] ]);
  check_value "empty" (Json.Number 0.) (run_ok src "sum" [ Json.List [] ])

let test_while_loop () =
  let src =
    {|fn collatz(n) {
        let steps = 0;
        while (n != 1) {
          if (n % 2 == 0) { n = n / 2; }
          else { n = 3 * n + 1; }
          steps = steps + 1;
        }
        return steps;
      }|}
  in
  check_value "collatz 6" (Json.Number 8.) (run_ok src "collatz" [ Json.Number 6. ]);
  check_value "collatz 1" (Json.Number 0.) (run_ok src "collatz" [ Json.Number 1. ]);
  (* an infinite while burns out instead of hanging *)
  Alcotest.(check string) "infinite loop gassed" "out of gas"
    (run_err ~gas:500 "fn f() { while (true) { } return 1; }" "f" []);
  (* return escapes the loop *)
  check_value "return in while" (Json.Number 3.)
    (run_ok
       {|fn f() { let i = 0; while (true) { i = i + 1; if (i == 3) { return i; } } return 0; }|}
       "f" [])

let test_scoping () =
  (* a let inside a block shadows; assignment reaches outward *)
  let src =
    {|fn f() {
        let x = 1;
        if (true) { let x = 2; x = 3; }
        if (true) { x = 10; }
        return x;
      }|}
  in
  check_value "scoping" (Json.Number 10.) (run_ok src "f" []);
  Alcotest.(check string) "unbound" "unbound variable y" (run_err "fn f() { return y; }" "f" [])

let test_user_functions_and_recursion () =
  let src =
    {|fn fib(n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      fn main() { return fib(12); }|}
  in
  check_value "fib" (Json.Number 144.) (run_ok src "main" []);
  (* unbounded recursion dies on depth or gas, never hangs *)
  let e = run_err "fn loop(n) { return loop(n + 1); } " "loop" [ Json.Number 0. ] in
  Alcotest.(check bool) (Printf.sprintf "bounded: %s" e) true
    (e = "call depth exceeded" || e = "out of gas")

let test_gas_limit () =
  let src = "fn f() { let i = 0; for (x in range(100000)) { i = i + 1; } return i; }" in
  Alcotest.(check string) "out of gas" "out of gas" (run_err ~gas:1000 src "f" []);
  check_value "enough gas" (Json.Number 100.)
    (run_ok ~gas:100000 "fn f() { let i = 0; for (x in range(100)) { i = i + 1; } return i; }" "f" [])

(* ---------------- data structures & builtins ---------------- *)

let test_lists_objects () =
  check_value "index" (Json.Number 2.) (run_ok "fn f() { return [1,2,3][1]; }" "f" []);
  check_value "oob is null" Json.Null (run_ok "fn f() { return [1][5]; }" "f" []);
  check_value "member" (Json.String "v") (run_ok {|fn f() { return {"k": "v"}.k; }|} "f" []);
  check_value "bracket member" (Json.String "v") (run_ok {|fn f() { return {"k": "v"}["k"]; }|} "f" []);
  check_value "missing member" Json.Null (run_ok {|fn f() { return {}.missing; }|} "f" []);
  check_value "nested" (Json.Number 42.)
    (run_ok {|fn f() { return {"a": [{"b": 42}]}.a[0].b; }|} "f" []);
  check_value "ident keys" (Json.Number 1.) (run_ok "fn f() { return {a: 1}.a; }" "f" [])

let test_builtins_strings () =
  check_value "len" (Json.Number 3.) (run_ok {|fn f() { return len("abc"); }|} "f" []);
  check_value "split-join" (Json.String "a-b-c")
    (run_ok {|fn f() { return join(split("a/b/c", "/"), "-"); }|} "f" []);
  check_value "contains str" (Json.Bool true) (run_ok {|fn f() { return contains("hello", "ell"); }|} "f" []);
  check_value "starts" (Json.Bool true) (run_ok {|fn f() { return starts_with("abc", "ab"); }|} "f" []);
  check_value "ends" (Json.Bool true) (run_ok {|fn f() { return ends_with("abc", "bc"); }|} "f" []);
  check_value "lower" (Json.String "abc") (run_ok {|fn f() { return lower("AbC"); }|} "f" []);
  check_value "substr" (Json.String "bc") (run_ok {|fn f() { return substr("abcd", 1, 2); }|} "f" []);
  check_value "substr clamps" (Json.String "d") (run_ok {|fn f() { return substr("abcd", 3, 10); }|} "f" []);
  check_value "replace" (Json.String "a.b.c") (run_ok {|fn f() { return replace("a/b/c", "/", "."); }|} "f" []);
  check_value "trim" (Json.String "x") (run_ok {|fn f() { return trim("  x "); }|} "f" [])

let test_builtins_misc () =
  check_value "num" (Json.Number 4.5) (run_ok {|fn f() { return num("4.5"); }|} "f" []);
  check_value "num bad" Json.Null (run_ok {|fn f() { return num("xyz"); }|} "f" []);
  check_value "floor" (Json.Number 2.) (run_ok "fn f() { return floor(2.9); }" "f" []);
  check_value "json roundtrip" (Json.Obj [ ("a", Json.Number 1.) ])
    (run_ok {|fn f() { return json_parse(json_str({"a": 1})); }|} "f" []);
  check_value "keys" (Json.List [ Json.String "a"; Json.String "b" ])
    (run_ok {|fn f() { return keys({"a":1, "b":2}); }|} "f" []);
  check_value "get default" (Json.String "d") (run_ok {|fn f() { return get({}, "k", "d"); }|} "f" []);
  check_value "get null obj" (Json.String "d") (run_ok {|fn f() { return get(null, "k", "d"); }|} "f" []);
  check_value "set" (Json.Number 9.) (run_ok {|fn f() { return set({"k":1}, "k", 9).k; }|} "f" []);
  check_value "push" (Json.List [ Json.Number 1.; Json.Number 2. ])
    (run_ok "fn f() { return push([1], 2); }" "f" []);
  check_value "slice" (Json.List [ Json.Number 2.; Json.Number 3. ])
    (run_ok "fn f() { return slice([1,2,3,4], 1, 2); }" "f" []);
  check_value "range" (Json.List [ Json.Number 0.; Json.Number 1. ]) (run_ok "fn f() { return range(2); }" "f" []);
  check_value "typeof" (Json.String "list") (run_ok "fn f() { return typeof([]); }" "f" []);
  Alcotest.(check string) "arity" "len expects 1 argument(s)" (run_err "fn f() { return len(); }" "f" []);
  Alcotest.(check string) "unknown fn" "unknown function nope" (run_err "fn f() { return nope(); }" "f" [])

let test_builtins_list_extras () =
  check_value "reverse" (Json.List [ Json.Number 2.; Json.Number 1. ])
    (run_ok "fn f() { return reverse([1, 2]); }" "f" []);
  check_value "sort numbers" (Json.List [ Json.Number 1.; Json.Number 2.; Json.Number 3. ])
    (run_ok "fn f() { return sort([3, 1, 2]); }" "f" []);
  check_value "sort strings" (Json.List [ Json.String "a"; Json.String "b" ])
    (run_ok {|fn f() { return sort(["b", "a"]); }|} "f" []);
  check_value "sort empty" (Json.List []) (run_ok "fn f() { return sort([]); }" "f" []);
  Alcotest.(check bool) "sort mixed fails" true
    (String.length (run_err "fn f() { return sort([true]); }" "f" []) > 0);
  check_value "index_of hit" (Json.Number 1.)
    (run_ok {|fn f() { return index_of(["x", "y"], "y"); }|} "f" []);
  check_value "index_of miss" (Json.Number (-1.))
    (run_ok {|fn f() { return index_of([], "y"); }|} "f" []);
  check_value "first" (Json.Number 7.) (run_ok "fn f() { return first([7, 8]); }" "f" []);
  check_value "last" (Json.Number 8.) (run_ok "fn f() { return last([7, 8]); }" "f" []);
  check_value "first empty" Json.Null (run_ok "fn f() { return first([]); }" "f" [])

let test_store_effects () =
  let _, effects =
    run_ok {|fn f() { store("zip", "94704"); store("n", 3); return null; }|} "f" []
  in
  match effects with
  | [ Lightscript.Store ("zip", Json.String "94704"); Lightscript.Store ("n", Json.Number 3.) ] -> ()
  | _ -> Alcotest.fail "wrong effects"

(* ---------------- realistic page scripts ---------------- *)

let news_code =
  {|
  fn plan(path, state) {
    if (path == "" || path == "/") {
      return ["news.example/front.json"];
    }
    let parts = split(path, "/");
    let section = parts[1];
    return ["news.example/" + section + "/index.json",
            "news.example" + path + ".json"];
  }

  fn render(path, state, data) {
    if (data[0] == null) { return "404 not found"; }
    let out = "== " + get(data[0], "title", "untitled") + " ==";
    for (item in get(data[0], "items", [])) {
      out = out + "\n* " + item;
    }
    return out;
  }
|}

let test_realistic_plan () =
  match Lightscript.parse news_code with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Lightscript.pp_error e)
  | Ok p ->
      let plan path =
        match Lightscript.run p ~fn:"plan" ~args:[ Json.String path; Json.Obj [] ] with
        | Ok (Json.List keys, _) -> List.map Json.get_string keys
        | Ok _ | Error _ -> Alcotest.fail "plan failed"
      in
      Alcotest.(check (list string)) "front" [ "news.example/front.json" ] (plan "");
      Alcotest.(check (list string)) "article"
        [ "news.example/world/index.json"; "news.example/world/uganda.json" ]
        (plan "/world/uganda")

let test_realistic_render () =
  match Lightscript.parse news_code with
  | Error _ -> Alcotest.fail "parse"
  | Ok p -> (
      let data =
        Json.List
          [
            Json.Obj
              [
                ("title", Json.String "World");
                ("items", Json.List [ Json.String "a story"; Json.String "another" ]);
              ];
          ]
      in
      match Lightscript.run p ~fn:"render" ~args:[ Json.String "/world"; Json.Obj []; data ] with
      | Ok (Json.String text, _) ->
          Alcotest.(check string) "rendered" "== World ==\n* a story\n* another" text
      | Ok _ | Error _ -> Alcotest.fail "render failed")

(* ---------------- properties ---------------- *)

let prop_interpreter_never_hangs =
  (* any program either parses+runs within gas or reports an error *)
  QCheck.Test.make ~name:"random scripts terminate" ~count:100
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun src ->
      match Lightscript.parse src with
      | Error _ -> true
      | Ok p -> (
          match Lightscript.run ~gas:5000 p ~fn:"f" ~args:[] with Ok _ | Error _ -> true))

let props = List.map QCheck_alcotest.to_alcotest [ prop_interpreter_never_hangs ]

let () =
  Alcotest.run "lightscript"
    [
      ( "parsing",
        [
          Alcotest.test_case "rejects junk" `Quick test_parse_errors;
          Alcotest.test_case "function listing" `Quick test_function_listing;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparison/logic" `Quick test_comparison_and_logic;
          Alcotest.test_case "strings" `Quick test_string_ops;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "for" `Quick test_for_loop;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "scoping" `Quick test_scoping;
          Alcotest.test_case "functions/recursion" `Quick test_user_functions_and_recursion;
          Alcotest.test_case "gas" `Quick test_gas_limit;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "lists/objects" `Quick test_lists_objects;
          Alcotest.test_case "strings" `Quick test_builtins_strings;
          Alcotest.test_case "misc" `Quick test_builtins_misc;
          Alcotest.test_case "list extras" `Quick test_builtins_list_extras;
          Alcotest.test_case "store effects" `Quick test_store_effects;
        ] );
      ( "page scripts",
        [
          Alcotest.test_case "plan" `Quick test_realistic_plan;
          Alcotest.test_case "render" `Quick test_realistic_render;
        ] );
      ("properties", props);
    ]
