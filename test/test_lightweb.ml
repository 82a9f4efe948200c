open Lightweb
module Json = Lw_json.Json

let rng () = Lw_crypto.Drbg.create ~seed:"lightweb-tests"

(* ---------------- Lw_path ---------------- *)

let test_path_parse () =
  (match Lw_path.parse "nytimes.com/world/africa/2023/06/headlines.json" with
  | Ok p ->
      Alcotest.(check string) "domain" "nytimes.com" (Lw_path.domain p);
      Alcotest.(check string) "rest" "/world/africa/2023/06/headlines.json" (Lw_path.rest p)
  | Error e -> Alcotest.fail e);
  (match Lw_path.parse "example.org" with
  | Ok p -> Alcotest.(check string) "bare domain" "" (Lw_path.rest p)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" bad) true
        (Result.is_error (Lw_path.parse bad)))
    [ ""; "nodots/page"; "-bad.com/x"; "UPPER.com/x"; "a..b/x"; "com/x" ]

let test_path_domain_check () =
  let p = Result.get_ok (Lw_path.parse "a.com/x/y") in
  Alcotest.(check bool) "in" true (Lw_path.in_domain p "a.com");
  Alcotest.(check bool) "out" false (Lw_path.in_domain p "b.com")

(* ---------------- Zltp_wire codec ---------------- *)

let client_msgs : Zltp_wire.client_msg list =
  [
    Zltp_wire.Hello { version = 1; modes = [ Zltp_mode.Pir2; Zltp_mode.Enclave ] };
    Zltp_wire.Pir_query { qid = 7; epoch = 3; dpf_key = "binary\x00key\xff" };
    Zltp_wire.Pir_batch { qid = 0xFFFFFFFF; epoch = 0; dpf_keys = [ "k1"; ""; "k3" ] };
    Zltp_wire.Sync { qid = 8 };
    Zltp_wire.Enclave_get { qid = 1; key = "nytimes.com/x" };
    Zltp_wire.Health { qid = 42 };
    Zltp_wire.Bye;
  ]

let server_msgs : Zltp_wire.server_msg list =
  [
    Zltp_wire.Welcome
      {
        version = 1;
        mode = Zltp_mode.Pir2;
        domain_bits = 22;
        blob_size = 4096;
        hash_key = String.make 16 'h';
        server_id = "cdn-a/data-0";
        epoch = 5;
      };
    Zltp_wire.Answer { qid = 7; epoch = 5; share = String.make 100 '\x7f' };
    Zltp_wire.Batch_answer { qid = 3; epoch = 0; shares = [ "a"; "b" ] };
    Zltp_wire.Enclave_answer { qid = 12; value = None };
    Zltp_wire.Enclave_answer { qid = 13; value = Some "payload" };
    Zltp_wire.Health_reply { qid = 42; shards_total = 16; shards_down = 3; epoch = 9 };
    Zltp_wire.Sync_reply { qid = 8; epoch = 9; oldest = 7 };
    Zltp_wire.Err { qid = 0; code = 2; message = "nope" };
  ]

let test_wire_roundtrip () =
  List.iter
    (fun m ->
      match Zltp_wire.decode_client (Zltp_wire.encode_client m) with
      | Ok m' -> Alcotest.(check bool) "client msg" true (m = m')
      | Error e -> Alcotest.fail e)
    client_msgs;
  List.iter
    (fun m ->
      match Zltp_wire.decode_server (Zltp_wire.encode_server m) with
      | Ok m' -> Alcotest.(check bool) "server msg" true (m = m')
      | Error e -> Alcotest.fail e)
    server_msgs

let test_wire_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "client reject" true (Result.is_error (Zltp_wire.decode_client s));
      Alcotest.(check bool) "server reject" true (Result.is_error (Zltp_wire.decode_server s)))
    [ ""; "\x99"; "\x01"; "\x02\x00\x00\x01\x00abc"; String.make 3 '\xff' ];
  (* trailing bytes rejected *)
  let m = Zltp_wire.encode_client Zltp_wire.Bye ^ "extra" in
  Alcotest.(check bool) "trailing" true (Result.is_error (Zltp_wire.decode_client m))

let test_mode_negotiation () =
  Alcotest.(check bool) "pir wins" true
    (Zltp_mode.negotiate ~client:[ Zltp_mode.Pir2; Zltp_mode.Enclave ] ~server:[ Zltp_mode.Pir2 ]
    = Some Zltp_mode.Pir2);
  Alcotest.(check bool) "strongest assumption last" true
    (* ranked negotiation: Pir2 (collusion assumption) outranks Enclave
       (hardware trust) regardless of list order *)
    (Zltp_mode.negotiate ~client:[ Zltp_mode.Enclave; Zltp_mode.Pir2 ]
       ~server:[ Zltp_mode.Pir2; Zltp_mode.Enclave ]
    = Some Zltp_mode.Pir2);
  Alcotest.(check bool) "single weakest" true
    (Zltp_mode.negotiate
       ~client:[ Zltp_mode.Enclave; Zltp_mode.Single; Zltp_mode.Pir2 ]
       ~server:Zltp_mode.all
    = Some Zltp_mode.Single);
  Alcotest.(check bool) "no overlap" true
    (Zltp_mode.negotiate ~client:[ Zltp_mode.Enclave ] ~server:[ Zltp_mode.Pir2 ] = None)

(* ---------------- populated universe fixture ---------------- *)

let site_code =
  {|
  fn plan(path, state) {
    if (path == "" || path == "/") { return [DOMAIN + "/front.json"]; }
    return [DOMAIN + path + ".json"];
  }
  fn render(path, state, data) {
    if (data[0] == null) { return "404"; }
    return get(data[0], "body", "(empty)");
  }
|}

(* inline the domain constant into the script: replace DOMAIN with "..." *)
let code_for domain =
  let marked =
    let b = Buffer.create 256 in
    let s = site_code in
    let m = "DOMAIN" in
    let i = ref 0 in
    while !i < String.length s do
      if !i + String.length m <= String.length s && String.sub s !i (String.length m) = m then begin
        Buffer.add_char b '\000';
        i := !i + String.length m
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  String.concat (Printf.sprintf "%S" domain) (String.split_on_char '\000' marked)

let make_universe () =
  let u = Universe.create ~name:"test-universe" Universe.default_geometry in
  let site domain pages =
    {
      Publisher.domain;
      code = code_for domain;
      pages =
        List.map (fun (suffix, body) -> (suffix, Json.Obj [ ("body", Json.String body) ])) pages;
    }
  in
  let push s =
    match Publisher.push u ~publisher:("pub-of-" ^ s.Publisher.domain) s with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  push
    (site "news.example"
       [
         ("/front.json", "Front page news");
         ("/world/uganda.json", "Uganda story");
         ("/tech/ocaml.json", "OCaml 5 ships");
       ]);
  push (site "wiki.example" [ ("/front.json", "A wiki"); ("/ocaml.json", "OCaml is a language") ]);
  u

let connect_browser ?(fetches_per_page = 5) u =
  let c0, c1 = Universe.code_servers u and d0, d1 = Universe.data_servers u in
  let code_client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ())
         [ Zltp_server.endpoint c0; Zltp_server.endpoint c1 ])
  in
  let data_client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ())
         [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ])
  in
  Browser.create ~fetches_per_page ~rng:(rng ()) ~code:code_client ~data:data_client ()

(* ---------------- Universe / Publisher ---------------- *)

let test_universe_ownership () =
  let u = Universe.create ~name:"u" Universe.default_geometry in
  Alcotest.(check bool) "claim" true (Universe.claim_domain u ~publisher:"alice" ~domain:"a.com" = Ok ());
  Alcotest.(check bool) "reclaim own" true
    (Universe.claim_domain u ~publisher:"alice" ~domain:"a.com" = Ok ());
  Alcotest.(check bool) "steal fails" true
    (Result.is_error (Universe.claim_domain u ~publisher:"bob" ~domain:"a.com"));
  Alcotest.(check (option string)) "owner" (Some "alice") (Universe.owner_of u "a.com");
  (* pushing to someone else's domain fails *)
  Alcotest.(check bool) "push_data blocked" true
    (Result.is_error
       (Universe.push_data u ~publisher:"bob" ~path:"a.com/x" ~value:(Json.String "v")));
  (* unclaimed domain *)
  Alcotest.(check bool) "unclaimed blocked" true
    (Result.is_error
       (Universe.push_data u ~publisher:"bob" ~path:"b.com/x" ~value:(Json.String "v")))

let test_universe_code_validation () =
  let u = Universe.create ~name:"u" Universe.default_geometry in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"x.com");
  Alcotest.(check bool) "bad syntax" true
    (Result.is_error (Universe.push_code u ~publisher:"p" ~domain:"x.com" ~source:"fn {"));
  Alcotest.(check bool) "missing render" true
    (Result.is_error
       (Universe.push_code u ~publisher:"p" ~domain:"x.com" ~source:"fn plan(p, s) { return []; }"));
  Alcotest.(check bool) "good" true
    (Universe.push_code u ~publisher:"p" ~domain:"x.com"
       ~source:"fn plan(p, s) { return []; } fn render(p, s, d) { return \"ok\"; }"
    = Ok ())

let test_universe_size_limits () =
  let u =
    Universe.create ~name:"u" { Universe.default_geometry with data_blob_size = 64 }
  in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"x.com");
  Alcotest.(check bool) "too large" true
    (Result.is_error
       (Universe.push_data u ~publisher:"p" ~path:"x.com/big"
          ~value:(Json.String (String.make 200 'x'))))

let test_publisher_push_report () =
  let u = make_universe () in
  Alcotest.(check int) "pages" 5 (Universe.page_count u);
  Alcotest.(check bool) "data readable" true
    (Universe.data_value u "news.example/front.json" <> None)

let test_publisher_validate () =
  let bad_suffix =
    { Publisher.domain = "a.com"; code = code_for "a.com"; pages = [ ("no-slash", Json.Null) ] }
  in
  let push site = Publisher.push (Universe.create ~name:"v" Universe.default_geometry) ~publisher:"p" site in
  Alcotest.(check bool) "suffix" true (Result.is_error (push bad_suffix));
  let dup =
    {
      Publisher.domain = "a.com";
      code = code_for "a.com";
      pages = [ ("/x", Json.Null); ("/x", Json.Null) ];
    }
  in
  Alcotest.(check bool) "duplicate" true (Result.is_error (push dup))

(* ---------------- ZLTP client/server ---------------- *)

let test_zltp_get_end_to_end () =
  let u = make_universe () in
  let d0, d1 = Universe.data_servers u in
  let client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ])
  in
  Alcotest.(check bool) "mode" true (Zltp_client.mode client = Zltp_mode.Pir2);
  (match Zltp_client.get client "news.example/front.json" with
  | Ok (Some v) ->
      Alcotest.(check bool) "is front" true (Json.equal (Json.of_string v)
        (Json.Obj [ ("body", Json.String "Front page news") ]))
  | Ok None -> Alcotest.fail "not found"
  | Error e -> Alcotest.fail e);
  (match Zltp_client.get client "news.example/does-not-exist" with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "phantom record"
  | Error e -> Alcotest.fail e)

let test_zltp_batch_get () =
  let u = make_universe () in
  let d0, d1 = Universe.data_servers u in
  let client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ])
  in
  match
    Zltp_client.get_batch client
      [ "news.example/front.json"; "missing"; "wiki.example/ocaml.json" ]
  with
  | Ok [ Some _; None; Some v ] ->
      Alcotest.(check bool) "third" true
        (Json.equal (Json.of_string v) (Json.Obj [ ("body", Json.String "OCaml is a language") ]))
  | Ok _ -> Alcotest.fail "wrong batch shape"
  | Error e -> Alcotest.fail e

let test_zltp_requires_hello () =
  let u = make_universe () in
  let d0, _ = Universe.data_servers u in
  let c = Zltp_server.conn d0 in
  match Zltp_server.handle c (Zltp_wire.Pir_query { qid = 9; epoch = 0; dpf_key = "xx" }) with
  | Some (Zltp_wire.Err { code; _ }) ->
      Alcotest.(check int) "not negotiated" Zltp_wire.err_not_negotiated code
  | _ -> Alcotest.fail "expected error"

let test_zltp_wrong_server_count () =
  let u = make_universe () in
  let d0, _ = Universe.data_servers u in
  match Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint d0 ] with
  | Error e -> Alcotest.(check bool) ("mentions 2: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "PIR with one server must fail"

let test_zltp_enclave_mode () =
  let u = make_universe () in
  let server = Universe.enclave_data_server u in
  let client =
    Result.get_ok
      (Zltp_client.connect ~prefer:[ Zltp_mode.Enclave ] ~rng:(rng ())
         [ Zltp_server.endpoint server ])
  in
  Alcotest.(check bool) "mode" true (Zltp_client.mode client = Zltp_mode.Enclave);
  (match Zltp_client.get client "news.example/front.json" with
  | Ok (Some v) ->
      Alcotest.(check bool) "front" true
        (Json.equal (Json.of_string v) (Json.Obj [ ("body", Json.String "Front page news") ]))
  | Ok None -> Alcotest.fail "not found"
  | Error e -> Alcotest.fail e);
  match Zltp_client.get client "missing" with
  | Ok None -> ()
  | _ -> Alcotest.fail "miss should be None"

let test_zltp_sharded_backend () =
  (* the full protocol over a front-end + shards deployment: same answers
     as the flat servers, and the browser works unchanged on top *)
  let u = make_universe () in
  let s0, s1 = Universe.sharded_data_servers u ~shard_bits:3 in
  let client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ])
  in
  (match Zltp_client.get client "news.example/front.json" with
  | Ok (Some v) ->
      Alcotest.(check bool) "front via shards" true
        (Json.equal (Json.of_string v) (Json.Obj [ ("body", Json.String "Front page news") ]))
  | Ok None -> Alcotest.fail "not found through shards"
  | Error e -> Alcotest.fail e);
  (* byte-identical to the flat deployment for a raw bucket *)
  let f0, f1 = Universe.data_servers u in
  let flat =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint f0; Zltp_server.endpoint f1 ])
  in
  Alcotest.(check bool) "bucket equality" true
    (Zltp_client.get_raw_index client 37 = Zltp_client.get_raw_index flat 37);
  (* a whole browsing session through the sharded fleet *)
  let c0, c1 = Universe.code_servers u in
  let code_client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint c0; Zltp_server.endpoint c1 ])
  in
  let b = Browser.create ~rng:(rng ()) ~code:code_client ~data:client () in
  match Browser.browse b "wiki.example/ocaml" with
  | Ok page -> Alcotest.(check string) "page" "OCaml is a language" page.Browser.text
  | Error e -> Alcotest.fail e

let test_zltp_over_pipe_serve_loop () =
  let u = make_universe () in
  let d0, d1 = Universe.data_servers u in
  let a0, b0 = Lw_net.Endpoint.pipe () and a1, b1 = Lw_net.Endpoint.pipe () in
  let t0 = Thread.create (fun () -> Zltp_server.serve d0 b0) () in
  let t1 = Thread.create (fun () -> Zltp_server.serve d1 b1) () in
  let client = Result.get_ok (Zltp_client.connect ~rng:(rng ()) [ a0; a1 ]) in
  (match Zltp_client.get client "wiki.example/front.json" with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "fetch over pipes failed");
  Zltp_client.close client;
  Thread.join t0;
  Thread.join t1

let test_zltp_over_tcp () =
  let u = make_universe () in
  let d0, d1 = Universe.data_servers u in
  let srv0 = Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep -> Zltp_server.serve d0 ep) in
  let srv1 = Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep -> Zltp_server.serve d1 ep) in
  let e0 = Lw_net.Tcp.connect ~host:"127.0.0.1" ~port:(Lw_net.Tcp.port srv0) () in
  let e1 = Lw_net.Tcp.connect ~host:"127.0.0.1" ~port:(Lw_net.Tcp.port srv1) () in
  let client = Result.get_ok (Zltp_client.connect ~rng:(rng ()) [ e0; e1 ]) in
  (match Zltp_client.get client "news.example/tech/ocaml.json" with
  | Ok (Some v) ->
      Alcotest.(check bool) "value" true
        (Json.equal (Json.of_string v) (Json.Obj [ ("body", Json.String "OCaml 5 ships") ]))
  | _ -> Alcotest.fail "fetch over TCP failed");
  Zltp_client.close client;
  Lw_net.Tcp.shutdown srv0;
  Lw_net.Tcp.shutdown srv1

(* ---------------- Zltp_frontend (sharding) ---------------- *)

(* A store whose one sealed epoch [fill] writes. *)
let one_epoch_store ~domain_bits ~bucket_size fill =
  let st = Lw_store.create ~domain_bits ~bucket_size () in
  let w = Lw_store.writer st in
  fill w;
  ignore (Lw_store.Writer.seal w);
  st

let random_store ~domain_bits ~bucket_size seed =
  one_epoch_store ~domain_bits ~bucket_size (fun w ->
      Lw_store.Writer.fill_random w (Lw_util.Det_rng.of_string_seed seed))

(* The unsharded reference: one server over the whole current epoch. *)
let whole_server st = Lw_pir.Server.of_snapshot (Lw_store.current st)

let test_frontend_matches_flat () =
  let st = random_store ~domain_bits:8 ~bucket_size:64 "frontend" in
  let flat = whole_server st in
  let fe = Zltp_frontend.of_store st ~shard_bits:3 in
  Alcotest.(check int) "shards" 8 (Zltp_frontend.shard_count fe);
  for alpha = 0 to 20 do
    let k0, _ = Lw_dpf.Dpf.gen ~domain_bits:8 ~alpha:(alpha * 11 mod 256) (rng ()) in
    Alcotest.(check string)
      (Printf.sprintf "query %d" alpha)
      (Lw_pir.Server.answer flat k0) (Zltp_frontend.answer fe k0)
  done

(* The first and last global buckets live in the first and last shard's
   views; both parties' sharded shares reconstruct them. *)
let test_frontend_bucket_routing () =
  let st =
    one_epoch_store ~domain_bits:6 ~bucket_size:32 (fun w ->
        Lw_store.Writer.set w 0 "first";
        Lw_store.Writer.set w 63 "last")
  in
  let fe = Zltp_frontend.of_store st ~shard_bits:2 in
  let read alpha =
    let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits:6 ~alpha (rng ()) in
    Lw_util.Xorbuf.xor (Zltp_frontend.answer fe k0) (Zltp_frontend.answer fe k1)
  in
  Alcotest.(check string) "read 0" "first" (String.sub (read 0) 0 5);
  Alcotest.(check string) "read 63" "last" (String.sub (read 63) 0 4)

let empty_frontend ~domain_bits ~shard_bits ~bucket_size =
  Zltp_frontend.of_store (Lw_store.create ~domain_bits ~bucket_size ()) ~shard_bits

(* A batch feeds each shard's latency histogram once, with a
   non-negative time. *)
let test_frontend_timings () =
  let fe = empty_frontend ~domain_bits:8 ~shard_bits:2 ~bucket_size:32 in
  let keys = Array.init 3 (fun i -> fst (Lw_dpf.Dpf.gen ~domain_bits:8 ~alpha:(3 + i) (rng ()))) in
  let hists = Zltp_frontend.shard_histograms fe in
  let before = Array.map Lw_obs.Metrics.hist_count hists in
  ignore (Zltp_frontend.answer_batch fe keys);
  Alcotest.(check int) "per-shard timings" 4 (Array.length hists);
  Array.iteri
    (fun i h ->
      Alcotest.(check int) "one timing per shard" (before.(i) + 1) (Lw_obs.Metrics.hist_count h);
      Alcotest.(check bool) "non-negative" true ((Lw_obs.Metrics.snapshot_hist h).sum >= 0.))
    hists

let test_frontend_refusal () =
  (* the down-shard check runs before any key is split, so
     [answer_batch_result] refuses rather than return a partial XOR, and
     answers again once the shard is back *)
  let st = random_store ~domain_bits:8 ~bucket_size:64 "frontend-refusal" in
  let fe = Zltp_frontend.of_store st ~shard_bits:4 in
  let k0, _ = Lw_dpf.Dpf.gen ~domain_bits:8 ~alpha:200 (rng ()) in
  let answer () =
    Result.map
      (fun shares -> shares.(0))
      (Zltp_frontend.answer_batch_result fe (Zltp_frontend.current fe) [| k0 |])
  in
  (match answer () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("healthy front-end refused: " ^ e));
  Zltp_frontend.set_shard_down fe 5 true;
  (match answer () with
  | Ok _ -> Alcotest.fail "front-end answered with a shard down (partial XOR!)"
  | Error _ -> ());
  Zltp_frontend.set_shard_down fe 5 false;
  match answer () with
  | Ok share ->
      Alcotest.(check string) "recovers" (Zltp_frontend.answer fe k0) share
  | Error e -> Alcotest.fail ("recovered front-end refused: " ^ e)

(* Sharded front-end answers vs one [Lw_pir.Server] over the whole
   epoch: same database, same keys => bit-identical shares, across shard
   counts 4/16/64. *)
let frontend_geometry =
  QCheck.make
    ~print:(fun (sb, alphas) ->
      Printf.sprintf "shard_bits=%d alphas=[%s]" sb
        (String.concat ";" (List.map string_of_int alphas)))
    QCheck.Gen.(
      oneofl [ 2; 4; 6 ] >>= fun shard_bits ->
      list_size (int_range 1 9) (int_range 0 255) >>= fun alphas ->
      return (shard_bits, alphas))

let prop_frontend_matches_serial =
  QCheck.Test.make ~name:"shards = serial" ~count:30 frontend_geometry
    (fun (shard_bits, alphas) ->
      let domain_bits = 8 in
      let st = random_store ~domain_bits ~bucket_size:48 "frontend-prop" in
      let flat = whole_server st in
      let fe = Zltp_frontend.of_store st ~shard_bits in
      List.for_all
        (fun alpha ->
          let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha (rng ()) in
          List.for_all
            (fun k -> String.equal (Lw_pir.Server.answer flat k) (Zltp_frontend.answer fe k))
            [ k0; k1 ])
        alphas)

(* ---------------- Browser ---------------- *)

let test_browser_renders_pages () =
  let u = make_universe () in
  let b = connect_browser u in
  (match Browser.browse b "news.example/world/uganda" with
  | Ok page ->
      Alcotest.(check string) "text" "Uganda story" page.Browser.text;
      Alcotest.(check bool) "cold cache" false page.Browser.code_cache_hit;
      Alcotest.(check int) "planned" 1 page.Browser.planned;
      Alcotest.(check int) "fetched fixed" 5 page.Browser.fetched
  | Error e -> Alcotest.fail e);
  (match Browser.browse b "news.example/tech/ocaml" with
  | Ok page ->
      Alcotest.(check string) "text2" "OCaml 5 ships" page.Browser.text;
      Alcotest.(check bool) "warm cache" true page.Browser.code_cache_hit
  | Error e -> Alcotest.fail e);
  match Browser.browse b "news.example/" with
  | Ok page -> Alcotest.(check string) "front" "Front page news" page.Browser.text
  | Error e -> Alcotest.fail e

let test_browser_missing_page_renders_404 () =
  let u = make_universe () in
  let b = connect_browser u in
  match Browser.browse b "news.example/nope" with
  | Ok page -> Alcotest.(check string) "404" "404" page.Browser.text
  | Error e -> Alcotest.fail e

let test_browser_unknown_domain_errors () =
  let u = make_universe () in
  let b = connect_browser u in
  match Browser.browse b "ghost.example/x" with
  | Error e -> Alcotest.(check bool) ("error: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should fail"

let test_browser_traffic_shape_invariant () =
  (* THE lightweb property: same-universe pages are indistinguishable on
     the wire. Compare event logs for two different pages from fresh
     browsers with the same cache state. *)
  let shape path =
    let u = make_universe () in
    let b = connect_browser u in
    ignore (Browser.browse b path);
    Browser.events b
  in
  let s1 = shape "news.example/world/uganda" in
  let s2 = shape "wiki.example/ocaml" in
  Alcotest.(check bool) "identical event shape" true (s1 = s2);
  Alcotest.(check int) "1 code + 5 data" 6 (List.length s1);
  (* a page whose plan wants fewer keys than k still fetches k *)
  let s3 = shape "news.example/" in
  Alcotest.(check bool) "padded to same shape" true (s1 = s3)

(* A site whose plan always asks for its [n] pages [domain/k0.json] ..;
   render joins the bodies it got ("-" for a missing one), so any slot
   decoded from the wrong share shows in the text. *)
let push_fanout_site u domain ~n =
  let code =
    Printf.sprintf
      {|fn plan(p, s) {
          let keys = [];
          for (i in range(%d)) { keys = push(keys, %S + "/k" + i + ".json"); }
          return keys;
        }
        fn render(p, s, d) {
          let out = "";
          for (v in d) {
            if (v == null) { out = out + "-"; } else { out = out + get(v, "body", "?"); }
          }
          return out;
        }|}
      n domain
  in
  let pages =
    List.init n (fun i ->
        (Printf.sprintf "/k%d.json" i, Json.Obj [ ("body", Json.String (Printf.sprintf "b%d" i)) ]))
  in
  match Publisher.push u ~publisher:("pub-of-" ^ domain) { Publisher.domain; code; pages } with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* [make_universe] plus a site whose plan is exactly k = 5 keys long and
   one whose plan (20 keys) the browser must truncate. *)
let make_plan_universe () =
  let u = make_universe () in
  push_fanout_site u "exact.example" ~n:5;
  push_fanout_site u "greedy.example" ~n:20;
  u

let code_client u =
  let c0, c1 = Universe.code_servers u in
  Result.get_ok
    (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint c0; Zltp_server.endpoint c1 ])

(* Every client frame sent through [ep], decoded and logged under [label]. *)
let record_frames log label (ep : Lw_net.Endpoint.t) =
  {
    ep with
    Lw_net.Endpoint.send =
      (fun frame ->
        (match Zltp_wire.decode_client frame with
        | Ok msg -> log := (label, msg) :: !log
        | Error e -> Alcotest.failf "undecodable client frame to %s: %s" label e);
        ep.Lw_net.Endpoint.send frame);
  }

(* Every message through [ep] logged as (upload?, bytes, label), newest
   first: what an observer of the link sees. *)
let record_sizes log label (ep : Lw_net.Endpoint.t) =
  {
    Lw_net.Endpoint.send =
      (fun msg ->
        log := (true, String.length msg, label) :: !log;
        ep.Lw_net.Endpoint.send msg);
    recv =
      (fun () ->
        let msg = ep.Lw_net.Endpoint.recv () in
        log := (false, String.length msg, label) :: !log;
        msg);
    close = ep.Lw_net.Endpoint.close;
  }

let test_browser_bytes_on_wire_invariant () =
  (* stronger: the same message sequence on the wire (direction, size and
     flow of every message) whatever the plan length *)
  let trace_for path =
    let u = make_plan_universe () in
    let log = ref [] in
    let c0, c1 = Universe.code_servers u and d0, d1 = Universe.data_servers u in
    let wrap label s = record_sizes log label (Zltp_server.endpoint s) in
    let code_client =
      Result.get_ok (Zltp_client.connect ~rng:(rng ()) [ wrap "code0" c0; wrap "code1" c1 ])
    in
    let data_client =
      Result.get_ok (Zltp_client.connect ~rng:(rng ()) [ wrap "data0" d0; wrap "data1" d1 ])
    in
    let b = Browser.create ~rng:(rng ()) ~code:code_client ~data:data_client () in
    ignore (Browser.browse b path);
    let messages = List.rev !log in
    let total up = List.fold_left (fun a (u, n, _) -> if u = up then a + n else a) 0 messages in
    (total true, total false, messages)
  in
  let u1, d1, e1 = trace_for "news.example/world/uganda" in
  Alcotest.(check bool) "nonzero" true (u1 > 0 && d1 > 0);
  List.iter
    (fun path ->
      let u2, d2, e2 = trace_for path in
      Alcotest.(check int) (path ^ ": upload bytes equal") u1 u2;
      Alcotest.(check int) (path ^ ": download bytes equal") d1 d2;
      Alcotest.(check (list (triple bool int string))) (path ^ ": message sequence equal") e1 e2)
    [ "wiki.example/front"; "news.example/"; "exact.example/x"; "greedy.example/x" ]

let test_browser_page_is_one_batch () =
  (* Pir2: each data server sees exactly one k-wide Pir_batch per page, and
     both servers are asked about the same epoch *)
  let u = make_plan_universe () in
  let log = ref [] in
  let d0, d1 = Universe.data_servers u in
  let data_client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ())
         [
           record_frames log "data0" (Zltp_server.endpoint d0);
           record_frames log "data1" (Zltp_server.endpoint d1);
         ])
  in
  let k = 5 in
  let b =
    Browser.create ~fetches_per_page:k ~rng:(rng ()) ~code:(code_client u) ~data:data_client ()
  in
  let page name path expected =
    log := [];
    (match Browser.browse b path with
    | Ok p -> Alcotest.(check string) (name ^ ": text") expected p.Browser.text
    | Error e -> Alcotest.failf "%s: %s" name e);
    let epoch_at label =
      match List.filter (fun (l, _) -> l = label) !log with
      | [ (_, Zltp_wire.Pir_batch { epoch; dpf_keys; _ }) ] ->
          Alcotest.(check int) (Printf.sprintf "%s: %s batch width" name label) k
            (List.length dpf_keys);
          epoch
      | msgs ->
          Alcotest.failf "%s: %s saw %d frames, wanted one Pir_batch (Pir_query: %d)" name label
            (List.length msgs)
            (List.length
               (List.filter (function _, Zltp_wire.Pir_query _ -> true | _ -> false) msgs))
    in
    Alcotest.(check int) (name ^ ": one epoch") (epoch_at "data0") (epoch_at "data1")
  in
  page "short plan, padded" "news.example/world/uganda" "Uganda story";
  page "exact plan" "exact.example/x" "b0b1b2b3b4";
  page "greedy plan, truncated" "greedy.example/x" "b0b1b2b3b4";
  page "warm cache" "news.example/tech/ocaml" "OCaml 5 ships"

let test_browser_batch_retry_regenerates_keys () =
  (* role 0 has two replicas; the first drops the page's batch answer, so
     the client fails over and retries the whole batch *)
  let u = make_plan_universe () in
  let log = ref [] in
  let clock = Lw_obs.Clock.virtual_ () in
  let d0, d1 = Universe.data_servers u in
  let replica name ?(schedule = Lw_net.Faulty.none) server =
    Zltp_client.replica ~name (fun () ->
        let ep, _ = Lw_net.Faulty.wrap ~clock schedule (Zltp_server.endpoint server) in
        Ok (record_frames log name ep))
  in
  (* recv 0 = Health_reply, 1 = Welcome, 2 = the page's Batch_answer *)
  let drop_batch_answer = Lw_net.Faulty.of_plan ~recv:[ (2, Lw_net.Faulty.Drop) ] () in
  let data_client =
    Result.get_ok
      (Zltp_client.connect_replicated ~clock ~rng:(rng ())
         [ [ replica "a" ~schedule:drop_batch_answer d0; replica "b" d0 ]; [ replica "c" d1 ] ])
  in
  let b = Browser.create ~rng:(rng ()) ~code:(code_client u) ~data:data_client () in
  (match Browser.browse b "exact.example/x" with
  | Ok p -> Alcotest.(check string) "oracle text" "b0b1b2b3b4" p.Browser.text
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one failover" 1 (Zltp_client.failovers data_client);
  let batches name =
    List.rev
      (List.filter_map
         (function
           | l, Zltp_wire.Pir_batch { dpf_keys; _ } when l = name -> Some dpf_keys | _ -> None)
         !log)
  in
  match (batches "a", batches "b", batches "c") with
  | [ failed0 ], [ retry0 ], [ failed1; retry1 ] ->
      let failed = failed0 @ failed1 and retry = retry0 @ retry1 in
      Alcotest.(check int) "retry is k-wide per server" 10 (List.length retry);
      Alcotest.(check bool) "no DPF key reused by the retry" true
        (List.for_all (fun key -> not (List.mem key failed)) retry)
  | a, b, c ->
      Alcotest.failf "batches per replica a/b/c = %d/%d/%d, wanted 1/1/2" (List.length a)
        (List.length b) (List.length c)

let test_browser_domain_separation () =
  (* a malicious site trying to fetch another domain's data is stopped *)
  let u = Universe.create ~name:"evil-test" Universe.default_geometry in
  let evil_code =
    {|fn plan(path, state) { return ["victim.example/secret.json"]; }
      fn render(path, state, data) { return "stolen: " + json_str(data[0]); }|}
  in
  (match
     Publisher.push u ~publisher:"evil"
       { Publisher.domain = "evil.example"; code = evil_code; pages = [] }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let b = connect_browser u in
  match Browser.browse b "evil.example/x" with
  | Error e -> Alcotest.(check bool) ("blocked: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "cross-domain plan must be rejected"

let test_browser_local_storage_personalization () =
  (* weather.com example from §3.3: postal code cached in local storage
     drives which blob is fetched *)
  let u = Universe.create ~name:"weather" Universe.default_geometry in
  let weather_code =
    {|fn plan(path, state) {
        let zip = get(state, "zip", "00000");
        return ["weather.example/by-zip/" + zip + ".json"];
      }
      fn render(path, state, data) {
        if (data[0] == null) { return "enter your postal code"; }
        return "Forecast: " + get(data[0], "forecast", "?");
      }|}
  in
  (match
     Publisher.push u ~publisher:"w"
       {
         Publisher.domain = "weather.example";
         code = weather_code;
         pages =
           [
             ("/by-zip/94704.json", Json.Obj [ ("forecast", Json.String "fog then sun") ]);
             ("/by-zip/02139.json", Json.Obj [ ("forecast", Json.String "snow") ]);
           ];
       }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let b = connect_browser u in
  (match Browser.browse b "weather.example/" with
  | Ok page -> Alcotest.(check string) "no zip yet" "enter your postal code" page.Browser.text
  | Error e -> Alcotest.fail e);
  Browser.storage_set b ~domain:"weather.example" "zip" (Json.String "94704");
  (match Browser.browse b "weather.example/" with
  | Ok page -> Alcotest.(check string) "berkeley" "Forecast: fog then sun" page.Browser.text
  | Error e -> Alcotest.fail e);
  Browser.storage_set b ~domain:"weather.example" "zip" (Json.String "02139");
  match Browser.browse b "weather.example/" with
  | Ok page -> Alcotest.(check string) "cambridge" "Forecast: snow" page.Browser.text
  | Error e -> Alcotest.fail e

let test_browser_script_store_effect () =
  let u = Universe.create ~name:"counter" Universe.default_geometry in
  let code =
    {|fn plan(path, state) { return []; }
      fn render(path, state, data) {
        let n = get(state, "visits", 0) + 1;
        store("visits", n);
        return "visit " + n;
      }|}
  in
  (match
     Publisher.push u ~publisher:"c" { Publisher.domain = "count.example"; code; pages = [] }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let b = connect_browser u in
  (match Browser.browse b "count.example/" with
  | Ok p -> Alcotest.(check string) "first" "visit 1" p.Browser.text
  | Error e -> Alcotest.fail e);
  (match Browser.browse b "count.example/" with
  | Ok p -> Alcotest.(check string) "second" "visit 2" p.Browser.text
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "storage visible" true
    (Browser.storage_get b ~domain:"count.example" "visits" = Some (Json.Number 2.))

let test_browser_storage_isolated_by_domain () =
  let u = make_universe () in
  let b = connect_browser u in
  Browser.storage_set b ~domain:"news.example" "secret" (Json.String "x");
  Alcotest.(check bool) "other domain blind" true
    (Browser.storage_get b ~domain:"wiki.example" "secret" = None)

let test_browser_code_eviction_refetches () =
  let u = make_universe () in
  let b = connect_browser u in
  ignore (Browser.browse b "news.example/");
  Browser.clear_events b;
  Browser.evict_code b "news.example";
  ignore (Browser.browse b "news.example/");
  let code_fetches =
    List.length (List.filter (fun e -> e = Browser.Code_fetch) (Browser.events b))
  in
  Alcotest.(check int) "refetched" 1 code_fetches

(* ---------------- Access control ---------------- *)

let test_paywall_roundtrip () =
  let m = Access_control.master ~seed:"nyt" in
  let sub = Access_control.subscribe m ~epoch:3 in
  let sealed = Access_control.seal m ~epoch:3 ~path:"nyt.example/premium" (Json.String "scoop") in
  Alcotest.(check bool) "sealed" true (Access_control.is_sealed sealed);
  (match Access_control.open_ sub ~path:"nyt.example/premium" sealed with
  | Ok v -> Alcotest.(check bool) "plain" true (Json.equal v (Json.String "scoop"))
  | Error e -> Alcotest.fail e);
  (* wrong path (replay) fails *)
  Alcotest.(check bool) "path binding" true
    (Result.is_error (Access_control.open_ sub ~path:"nyt.example/other" sealed))

let test_paywall_revocation () =
  let m = Access_control.master ~seed:"nyt" in
  let loyal = Access_control.subscribe m ~epoch:1 in
  let revoked = Access_control.subscribe m ~epoch:1 in
  (* epoch 1 content readable by both *)
  let c1 = Access_control.seal m ~epoch:1 ~path:"p" (Json.String "jan") in
  Alcotest.(check bool) "both read e1" true
    (Result.is_ok (Access_control.open_ loyal ~path:"p" c1)
    && Result.is_ok (Access_control.open_ revoked ~path:"p" c1));
  (* publisher rotates; loyal renews, revoked does not *)
  Access_control.renew m ~epoch:2 loyal;
  let c2 = Access_control.seal m ~epoch:2 ~path:"p" (Json.String "feb") in
  Alcotest.(check bool) "loyal reads e2" true (Result.is_ok (Access_control.open_ loyal ~path:"p" c2));
  Alcotest.(check bool) "revoked cannot" true
    (Result.is_error (Access_control.open_ revoked ~path:"p" c2));
  (* and the revoked key is useless even if epochs are faked *)
  revoked.Access_control.epoch <- 2;
  Alcotest.(check bool) "old key wrong" true
    (Result.is_error (Access_control.open_ revoked ~path:"p" c2))

let test_paywall_through_browser () =
  let u = Universe.create ~name:"paywalled" Universe.default_geometry in
  let m = Access_control.master ~seed:"premium-pub" in
  let code =
    {|fn plan(path, state) { return ["prem.example/article.json"]; }
      fn render(path, state, data) {
        if (data[0] == null) { return "404"; }
        if (get(data[0], "_sealed", null) != null) { return "subscribe to read!"; }
        return get(data[0], "body", "?");
      }|}
  in
  let sealed = Access_control.seal m ~epoch:1 ~path:"prem.example/article.json"
      (Json.Obj [ ("body", Json.String "premium scoop") ])
  in
  (match
     Publisher.push u ~publisher:"prem"
       { Publisher.domain = "prem.example"; code; pages = [ ("/article.json", sealed) ] }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* non-subscriber sees the paywall *)
  let b1 = connect_browser u in
  (match Browser.browse b1 "prem.example/a" with
  | Ok p -> Alcotest.(check string) "paywalled" "subscribe to read!" p.Browser.text
  | Error e -> Alcotest.fail e);
  (* subscriber reads the article *)
  let b2 = connect_browser u in
  Browser.add_subscription b2 ~domain:"prem.example" (Access_control.subscribe m ~epoch:1);
  match Browser.browse b2 "prem.example/a" with
  | Ok p -> Alcotest.(check string) "unsealed" "premium scoop" p.Browser.text
  | Error e -> Alcotest.fail e

(* ---------------- Universe_store (persistence) ---------------- *)

(* [Universe_store]'s document through a temp file: [save] then [load],
   and [load] of a document given as text. *)
let with_temp f =
  let path = Filename.temp_file "lw_universe" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let load_text text =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Universe_store.load ~path)

let saved_text u =
  with_temp (fun path ->
      match Universe_store.save u ~path with
      | Error e -> Alcotest.fail e
      | Ok () -> In_channel.with_open_bin path In_channel.input_all)

let reload u = load_text (saved_text u)

let test_snapshot_roundtrip () =
  let u = make_universe () in
  Browser.storage_set (connect_browser u) ~domain:"news.example" "noise" Json.Null;
  match reload u with
  | Error e -> Alcotest.fail e
  | Ok u' ->
      Alcotest.(check string) "name" (Universe.name u) (Universe.name u');
      Alcotest.(check int) "pages" (Universe.page_count u) (Universe.page_count u');
      Alcotest.(check (list (pair string string))) "owners" (Universe.domains u)
        (Universe.domains u');
      (* every blob survives byte-comparable (JSON-equal) *)
      List.iter
        (fun path ->
          let v = Option.get (Universe.data_value u path) in
          match Universe.data_value u' path with
          | Some v' ->
              Alcotest.(check bool) path true
                (Json.equal (Json.of_string v) (Json.of_string v'))
          | None -> Alcotest.fail ("lost " ^ path))
        (Universe.data_paths u);
      (* and the restored universe actually serves pages *)
      let b = connect_browser u' in
      (match Browser.browse b "news.example/world/uganda" with
      | Ok page -> Alcotest.(check string) "browses" "Uganda story" page.Browser.text
      | Error e -> Alcotest.fail e)

let test_snapshot_preserves_hash_placement () =
  (* same seed -> same keyword->bucket placement, so a client that knows
     indices keeps working across a reload *)
  let u = make_universe () in
  let u' = Result.get_ok (reload u) in
  let d0, d1 = Universe.data_servers u in
  let e0, e1 = Universe.data_servers u' in
  let fetch (s0, s1) key =
    let c =
      Result.get_ok
        (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ])
    in
    Result.get_ok (Zltp_client.get c key)
  in
  Alcotest.(check (option string)) "same result through PIR"
    (fetch (d0, d1) "wiki.example/ocaml.json")
    (fetch (e0, e1) "wiki.example/ocaml.json")

let test_snapshot_file_roundtrip () =
  let u = make_universe () in
  let path = Filename.temp_file "lw_universe" ".json" in
  (match Universe_store.save u ~path with Ok () -> () | Error e -> Alcotest.fail e);
  (match Universe_store.load ~path with
  | Ok u' -> Alcotest.(check int) "pages" (Universe.page_count u) (Universe.page_count u')
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_snapshot_rejects_malformed () =
  List.iter
    (fun j ->
      Alcotest.(check bool) "rejected" true
        (Result.is_error (load_text j)))
    [
      "{}";
      {|{"format": 99, "name": "x", "seed": "s"}|};
      {|{"format": 1, "name": "x", "seed": "s", "geometry": {}, "owners": [], "code": [], "data": []}|};
    ]

(* ---------------- wire codec properties ---------------- *)

(* Strings are mostly short, and one in five is up to 16 KiB, so shares
   reach the CRC kernel's four-lane folding and every tail length. Every
   constructor of both message types is drawn. *)
let gen_wire_str =
  let open QCheck.Gen in
  frequency
    [ (4, string_size ~gen:char (0 -- 80)); (1, string_size ~gen:char (0 -- 16384)) ]

let gen_mode = QCheck.Gen.oneofl Zltp_mode.all

let gen_client_msg =
  let open QCheck.Gen in
  let str = gen_wire_str and qid = int_bound 0xffffff and epoch = int_bound 0xffff in
  oneof
    [
      map
        (fun (v, modes) -> Zltp_wire.Hello { version = v land 0xff; modes })
        (pair (int_bound 255) (list_size (0 -- 4) gen_mode));
      map (fun (qid, epoch, dpf_key) -> Zltp_wire.Pir_query { qid; epoch; dpf_key })
        (triple qid epoch str);
      map (fun (qid, epoch, dpf_keys) -> Zltp_wire.Pir_batch { qid; epoch; dpf_keys })
        (triple qid epoch (list_size (0 -- 6) str));
      map
        (fun (qid, epoch, dpf_key0, dpf_key1) ->
          Zltp_wire.Keyword_query { qid; epoch; dpf_key0; dpf_key1 })
        (quad qid epoch str str);
      map (fun (qid, key) -> Zltp_wire.Enclave_get { qid; key }) (pair qid str);
      map (fun (qid, epoch) -> Zltp_wire.Spir_hint_req { qid; epoch }) (pair qid epoch);
      map (fun (qid, epoch, query) -> Zltp_wire.Spir_query { qid; epoch; query })
        (triple qid epoch str);
      map (fun qid -> Zltp_wire.Health { qid }) qid;
      map (fun qid -> Zltp_wire.Sync { qid }) qid;
      return Zltp_wire.Bye;
    ]

let gen_server_msg =
  let open QCheck.Gen in
  let str = gen_wire_str and qid = int_bound 0xffffff and epoch = int_bound 0xffff in
  oneof
    [
      map
        (fun ((d, b, hash_key, server_id), (mode, e)) ->
          Zltp_wire.Welcome
            {
              version = Zltp_wire.protocol_version;
              mode;
              domain_bits = d land 0xff;
              blob_size = b land 0xffffff;
              hash_key;
              server_id;
              epoch = e land 0xffffff;
            })
        (pair (quad (int_bound 255) (int_bound 1000000) str str) (pair gen_mode (int_bound 0xffffff)));
      map (fun (qid, epoch, share) -> Zltp_wire.Answer { qid; epoch; share })
        (triple qid epoch str);
      map (fun (qid, epoch, shares) -> Zltp_wire.Batch_answer { qid; epoch; shares })
        (triple qid epoch (list_size (0 -- 6) str));
      map
        (fun (qid, epoch, share0, share1) -> Zltp_wire.Keyword_answer { qid; epoch; share0; share1 })
        (quad qid epoch str str);
      map (fun (qid, value) -> Zltp_wire.Enclave_answer { qid; value }) (pair qid (option str));
      map (fun (qid, epoch, hint) -> Zltp_wire.Spir_hint { qid; epoch; hint }) (triple qid epoch str);
      map (fun (qid, epoch, answer) -> Zltp_wire.Spir_answer { qid; epoch; answer })
        (triple qid epoch str);
      map (fun (q, t, d) ->
          Zltp_wire.Health_reply
            { qid = q land 0xffffff; shards_total = t land 0xffff; shards_down = d land 0xffff;
              epoch = (q * 7) land 0xffff })
        (triple (int_bound 0xffffff) (int_bound 0xffff) (int_bound 0xffff));
      map (fun (q, e, o) ->
          Zltp_wire.Sync_reply
            { qid = q land 0xffffff; epoch = e + o; oldest = o })
        (triple (int_bound 0xffffff) (int_bound 0xffff) (int_bound 0xffff));
      map (fun (c, m) -> Zltp_wire.Err { qid = 0; code = c land 0xff; message = m })
        (pair (int_bound 255) str);
    ]

let prop_client_codec =
  QCheck.Test.make ~name:"client codec roundtrip" ~count:300 (QCheck.make gen_client_msg)
    (fun m -> Zltp_wire.decode_client (Zltp_wire.encode_client m) = Ok m)

let prop_server_codec =
  QCheck.Test.make ~name:"server codec roundtrip" ~count:300 (QCheck.make gen_server_msg)
    (fun m -> Zltp_wire.decode_server (Zltp_wire.encode_server m) = Ok m)

let prop_decoder_total =
  QCheck.Test.make ~name:"decoders never raise" ~count:500
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s ->
      (match Zltp_wire.decode_client s with Ok _ | Error _ -> true)
      && match Zltp_wire.decode_server s with Ok _ | Error _ -> true)

(* Mutations of honest encodings are the adversarially interesting inputs:
   they pass every superficial shape check. A single flipped byte must
   yield a structured [Error] (the CRC trailer catches it) or — only if
   the flip landed in the trailer of a message whose CRC still matches,
   which it can't for a single bit — a valid decode; never an exception. *)
let mutate_byte s pos =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = pos mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (pos mod 8))));
    Bytes.unsafe_to_string b
  end

let prop_client_mutation =
  QCheck.Test.make ~name:"mutated client encodings rejected cleanly" ~count:400
    (QCheck.make QCheck.Gen.(pair gen_client_msg (int_bound 10000)))
    (fun (m, pos) ->
      let s = mutate_byte (Zltp_wire.encode_client m) pos in
      match Zltp_wire.decode_client s with Ok _ | Error _ -> true)

let prop_server_mutation =
  QCheck.Test.make ~name:"mutated server encodings rejected cleanly" ~count:400
    (QCheck.make QCheck.Gen.(pair gen_server_msg (int_bound 10000)))
    (fun (m, pos) ->
      let s = mutate_byte (Zltp_wire.encode_server m) pos in
      match Zltp_wire.decode_server s with Ok _ | Error _ -> true)

(* every single-bit flip in the body or trailer is caught: that is the
   CRC-32 guarantee the chaos suite's Corrupt fault relies on *)
let flip_detected encode decode (m, bit) =
  let s = encode m in
  let b = Bytes.of_string s in
  let i = bit mod (String.length s * 8) in
  Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
  Result.is_error (decode (Bytes.unsafe_to_string b))

let prop_single_bit_flip_detected =
  QCheck.Test.make ~name:"single bit flip always detected" ~count:400
    (QCheck.make QCheck.Gen.(pair gen_client_msg (int_bound 1_000_000)))
    (flip_detected Zltp_wire.encode_client Zltp_wire.decode_client)

let prop_server_bit_flip_detected =
  QCheck.Test.make ~name:"single bit flip always detected, server messages" ~count:400
    (QCheck.make QCheck.Gen.(pair gen_server_msg (int_bound 1_000_000)))
    (flip_detected Zltp_wire.encode_server Zltp_wire.decode_server)

(* the encoder's counting pass sizes the frame exactly: the body it
   counts and the trailer, nothing more *)
let prop_encoded_size =
  QCheck.Test.make ~name:"encoding is counted body plus trailer" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_client_msg gen_server_msg))
    (fun (c, s) ->
      (* the trailer is the 4-byte CRC-32 *)
      String.length (Zltp_wire.encode_client c) = Zltp_wire.client_body_size c + 4
      && String.length (Zltp_wire.encode_server s) = Zltp_wire.server_body_size s + 4)

let test_wire_huge_length_claims () =
  (* a length field claiming gigabytes must fail fast on the bounds check,
     not allocate: we seal bodies with a valid CRC so the claim is actually
     reached, and watch the allocation counter *)
  let seal body =
    let n = String.length body in
    let b = Bytes.create (n + 4) in
    Bytes.blit_string body 0 b 0 n;
    Bytes.set_int32_be b n (Lw_util.Crc32.update 0l body ~pos:0 ~len:n);
    Bytes.unsafe_to_string b
  in
  let u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int v);
    Bytes.unsafe_to_string b
  in
  let cases =
    [
      (* Pir_query with a dpf_key claiming 0xFFFFFFF0 bytes *)
      ("huge string", "\x02" ^ u32 7 ^ u32 0xFFFFFFF0);
      (* Pir_batch claiming 2^30 keys *)
      ("huge list", "\x03" ^ u32 7 ^ u32 (1 lsl 30));
      (* nested: plausible list length but each element huge *)
      ("huge element", "\x03" ^ u32 7 ^ u32 2 ^ u32 0x7FFFFFFF);
    ]
  in
  List.iter
    (fun (name, body) ->
      let before = Gc.minor_words () in
      Alcotest.(check bool) name true (Result.is_error (Zltp_wire.decode_client (seal body)));
      let allocated = Gc.minor_words () -. before in
      Alcotest.(check bool) (name ^ " no unbounded alloc") true (allocated < 1e6))
    cases

let wire_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_client_codec;
      prop_server_codec;
      prop_decoder_total;
      prop_client_mutation;
      prop_server_mutation;
      prop_single_bit_flip_detected;
      prop_server_bit_flip_detected;
      prop_encoded_size;
    ]
  @ [ Alcotest.test_case "huge length claims" `Quick test_wire_huge_length_claims ]

(* ---------------- Peering ---------------- *)

let test_peering_propagation () =
  let reg = Peering.registry () in
  let akamai = Peering.create_cdn ~name:"akamai" reg in
  let fastly = Peering.create_cdn ~name:"fastly" reg in
  Peering.peer akamai fastly;
  Alcotest.(check (list string)) "peers" [ "fastly" ] (Peering.peers akamai);
  let site =
    {
      Publisher.domain = "shared.example";
      code = code_for "shared.example";
      pages = [ ("/front.json", Json.Obj [ ("body", Json.String "peered!") ]) ];
    }
  in
  (match Peering.publish akamai ~publisher:"pub" Peering.Medium site with
  | Ok n -> Alcotest.(check int) "two universes" 2 n
  | Error e -> Alcotest.fail e);
  (* content is readable from both CDNs' medium universes *)
  List.iter
    (fun cdn ->
      match Peering.universe cdn Peering.Medium with
      | Some u ->
          Alcotest.(check bool)
            (Peering.cdn_name cdn ^ " has it")
            true
            (Universe.data_value u "shared.example/front.json" <> None)
      | None -> Alcotest.fail "missing universe")
    [ akamai; fastly ]

let test_peering_ownership_conflict () =
  let reg = Peering.registry () in
  let a = Peering.create_cdn ~name:"a" reg in
  let b = Peering.create_cdn ~name:"b" reg in
  let site name =
    { Publisher.domain = "contested.example"; code = code_for "contested.example"; pages = [] }
    |> fun s -> ignore name; s
  in
  (match Peering.publish a ~publisher:"alice" Peering.Small (site "alice") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* bob cannot take the same domain even via a different CDN *)
  match Peering.publish b ~publisher:"bob" Peering.Small (site "bob") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "registry must prevent domain theft"

let test_peering_size_classes () =
  let reg = Peering.registry () in
  let cdn = Peering.create_cdn ~name:"c" reg in
  let small = Option.get (Peering.universe cdn Peering.Small) in
  let large = Option.get (Peering.universe cdn Peering.Large) in
  Alcotest.(check bool) "small < large blobs" true
    ((Universe.geometry small).Universe.data_blob_size
    < (Universe.geometry large).Universe.data_blob_size)

let () =
  Alcotest.run "lightweb-core"
    [
      ( "path-blob",
        [
          Alcotest.test_case "path parse" `Quick test_path_parse;
          Alcotest.test_case "domain check" `Quick test_path_domain_check;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "mode negotiation" `Quick test_mode_negotiation;
        ] );
      ( "universe",
        [
          Alcotest.test_case "ownership" `Quick test_universe_ownership;
          Alcotest.test_case "code validation" `Quick test_universe_code_validation;
          Alcotest.test_case "size limits" `Quick test_universe_size_limits;
          Alcotest.test_case "publisher push" `Quick test_publisher_push_report;
          Alcotest.test_case "publisher validate" `Quick test_publisher_validate;
        ] );
      ( "zltp",
        [
          Alcotest.test_case "get end-to-end" `Quick test_zltp_get_end_to_end;
          Alcotest.test_case "batch get" `Quick test_zltp_batch_get;
          Alcotest.test_case "requires hello" `Quick test_zltp_requires_hello;
          Alcotest.test_case "wrong server count" `Quick test_zltp_wrong_server_count;
          Alcotest.test_case "enclave mode" `Quick test_zltp_enclave_mode;
          Alcotest.test_case "sharded backend" `Quick test_zltp_sharded_backend;
          Alcotest.test_case "over pipes" `Quick test_zltp_over_pipe_serve_loop;
          Alcotest.test_case "over tcp" `Quick test_zltp_over_tcp;
        ] );
      ( "frontend-batch",
        [
          Alcotest.test_case "sharded = flat" `Quick test_frontend_matches_flat;
          Alcotest.test_case "bucket routing" `Quick test_frontend_bucket_routing;
          Alcotest.test_case "timings" `Quick test_frontend_timings;
          Alcotest.test_case "frontend refusal" `Quick test_frontend_refusal;
          QCheck_alcotest.to_alcotest prop_frontend_matches_serial;
        ] );
      ( "browser",
        [
          Alcotest.test_case "renders pages" `Quick test_browser_renders_pages;
          Alcotest.test_case "missing page" `Quick test_browser_missing_page_renders_404;
          Alcotest.test_case "unknown domain" `Quick test_browser_unknown_domain_errors;
          Alcotest.test_case "traffic shape invariant" `Quick test_browser_traffic_shape_invariant;
          Alcotest.test_case "wire bytes invariant" `Quick test_browser_bytes_on_wire_invariant;
          Alcotest.test_case "page is one batch" `Quick test_browser_page_is_one_batch;
          Alcotest.test_case "batch retry regenerates keys" `Quick
            test_browser_batch_retry_regenerates_keys;
          Alcotest.test_case "domain separation" `Quick test_browser_domain_separation;
          Alcotest.test_case "weather personalization" `Quick test_browser_local_storage_personalization;
          Alcotest.test_case "store effect" `Quick test_browser_script_store_effect;
          Alcotest.test_case "storage isolation" `Quick test_browser_storage_isolated_by_domain;
          Alcotest.test_case "code eviction" `Quick test_browser_code_eviction_refetches;
        ] );
      ( "paywall",
        [
          Alcotest.test_case "roundtrip" `Quick test_paywall_roundtrip;
          Alcotest.test_case "revocation" `Quick test_paywall_revocation;
          Alcotest.test_case "through browser" `Quick test_paywall_through_browser;
        ] );
      ( "peering",
        [
          Alcotest.test_case "propagation" `Quick test_peering_propagation;
          Alcotest.test_case "ownership conflict" `Quick test_peering_ownership_conflict;
          Alcotest.test_case "size classes" `Quick test_peering_size_classes;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "hash placement stable" `Quick test_snapshot_preserves_hash_placement;
          Alcotest.test_case "file roundtrip" `Quick test_snapshot_file_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_snapshot_rejects_malformed;
        ] );
      ("wire-properties", wire_props);
    ]
