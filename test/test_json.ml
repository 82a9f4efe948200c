open Lw_json

let json_testable =
  Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (Json.to_string v)) Json.equal

let parse_ok name input expected () =
  Alcotest.check json_testable name expected (Json.of_string input)

let parse_fails name input () =
  Alcotest.(check (option reject)) name None
    (match Json.of_string_opt input with Some _ -> Some () | None -> None)

let test_numbers () =
  Alcotest.check json_testable "int" (Json.Number 42.) (Json.of_string "42");
  Alcotest.check json_testable "neg" (Json.Number (-7.)) (Json.of_string "-7");
  Alcotest.check json_testable "float" (Json.Number 3.25) (Json.of_string "3.25");
  Alcotest.check json_testable "exp" (Json.Number 1200.) (Json.of_string "1.2e3");
  Alcotest.check json_testable "neg exp" (Json.Number 0.05) (Json.of_string "5e-2")

let test_strings () =
  Alcotest.check json_testable "plain" (Json.String "hi") (Json.of_string {|"hi"|});
  Alcotest.check json_testable "escapes" (Json.String "a\"b\\c\nd\te")
    (Json.of_string {|"a\"b\\c\nd\te"|});
  Alcotest.check json_testable "unicode bmp" (Json.String "\xc3\xa9") (Json.of_string {|"é"|});
  Alcotest.check json_testable "surrogate pair" (Json.String "\xf0\x9f\x98\x80")
    (Json.of_string {|"😀"|})

let test_structures () =
  Alcotest.check json_testable "nested"
    (Json.Obj
       [
         ("title", Json.String "Uganda");
         ("tags", Json.List [ Json.String "africa"; Json.String "news" ]);
         ("views", Json.Number 3.);
         ("draft", Json.Bool false);
         ("extra", Json.Null);
       ])
    (Json.of_string
       {|{"title":"Uganda","tags":["africa","news"],"views":3,"draft":false,"extra":null}|});
  Alcotest.check json_testable "empty obj" (Json.Obj []) (Json.of_string "{}");
  Alcotest.check json_testable "empty list" (Json.List []) (Json.of_string "[ ]");
  Alcotest.check json_testable "whitespace" (Json.List [ Json.Number 1.; Json.Number 2. ])
    (Json.of_string " [ 1 , 2 ] ")

let test_parse_errors () =
  List.iter
    (fun input ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" input)
        true
        (Json.of_string_opt input = None))
    [
      ""; "{"; "[1,"; "{\"a\":}"; "[1 2]"; "tru"; "\"unterminated"; "01a"; "{'a':1}";
      "[1],"; "nulll"; "\"\x01\"";
    ]

let test_roundtrip_cases () =
  List.iter
    (fun input ->
      let v = Json.of_string input in
      Alcotest.check json_testable
        (Printf.sprintf "compact %s" input)
        v
        (Json.of_string (Json.to_string v));
      Alcotest.check json_testable
        (Printf.sprintf "pretty %s" input)
        v
        (Json.of_string (Json.to_string ~pretty:true v)))
    [
      "null"; "true"; "[]"; "{}"; "-0.5";
      {|{"a":[1,{"b":"c\nd"},null],"e":{"f":[[]]}}|};
      {|"quote\" backslash\\ tab\t"|};
    ]

let test_accessors () =
  let v = Json.of_string {|{"name":"nyt","count":5,"ok":true,"items":[1,2]}|} in
  Alcotest.(check string) "member string" "nyt" (Json.get_string (Json.member "name" v));
  Alcotest.(check int) "member int" 5 (Json.get_int (Json.member "count" v));
  Alcotest.(check bool) "member bool" true (Json.get_bool (Json.member "ok" v));
  Alcotest.(check int) "list len" 2 (List.length (Json.get_list (Json.member "items" v)));
  Alcotest.check json_testable "absent is null" Json.Null (Json.member "nope" v);
  Alcotest.(check bool) "member_opt" true (Json.member_opt "nope" v = None);
  Alcotest.check_raises "get_string on number" (Invalid_argument "Json.get_string") (fun () ->
      ignore (Json.get_string (Json.Number 1.)))

let test_equal_order_insensitive () =
  let a = Json.of_string {|{"x":1,"y":2}|} and b = Json.of_string {|{"y":2,"x":1}|} in
  Alcotest.(check bool) "obj order" true (Json.equal a b);
  let c = Json.of_string {|[1,2]|} and d = Json.of_string {|[2,1]|} in
  Alcotest.(check bool) "list order matters" false (Json.equal c d)

(* random JSON generator for the roundtrip property *)
let gen_json =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun f -> Json.Number (float_of_int f)) (int_range (-1000) 1000);
                map (fun s -> Json.String s) (string_size ~gen:printable (0 -- 15));
              ]
          in
          if n <= 0 then scalar
          else
            frequency
              [
                (3, scalar);
                (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
                ( 1,
                  map
                    (fun kvs ->
                      (* distinct keys so order-insensitive equality is well-defined *)
                      let kvs = List.mapi (fun i (k, v) -> (Printf.sprintf "%s%d" k i, v)) kvs in
                      Json.Obj kvs)
                    (list_size (0 -- 4)
                       (pair (string_size ~gen:printable (1 -- 6)) (self (n / 2)))) );
              ])
        n)

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:200 (QCheck.make gen_json) (fun v ->
      Json.equal v (Json.of_string (Json.to_string v))
      && Json.equal v (Json.of_string (Json.to_string ~pretty:true v)))

let () =
  Alcotest.run "lw_json"
    [
      ( "parse",
        [
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "structures" `Quick test_structures;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "scalar true" `Quick (parse_ok "true" "true" (Json.Bool true));
          Alcotest.test_case "trailing garbage" `Quick (parse_fails "garbage" "1 x");
        ] );
      ( "print",
        [
          Alcotest.test_case "roundtrip cases" `Quick test_roundtrip_cases;
        ] );
      ( "access",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "equality" `Quick test_equal_order_insensitive;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_roundtrip ]);
    ]
