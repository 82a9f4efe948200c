(* Cross-module integration tests: the full pipeline from a synthetic
   corpus through publishing, ZLTP, and the browser; protocol robustness
   under fuzzing; and enclave-mode browsing. *)

open Lightweb
module Json = Lw_json.Json

let rng () = Lw_crypto.Drbg.create ~seed:"integration"
let det = Lw_util.Det_rng.of_string_seed

(* ---------------- corpus -> universe -> browser ---------------- *)

let corpus_code domain =
  Printf.sprintf
    {|fn plan(path, state) {
        if (path == "" || path == "/") { return []; }
        return ["%s" + path];
      }
      fn render(path, state, data) {
        if (len(data) == 0 || data[0] == null) { return "404"; }
        return get(data[0], "body", "?");
      }|}
    domain

let test_corpus_pipeline () =
  let corpus = Lw_sim.Corpus.generate ~sites:8 Lw_sim.Corpus.wikipedia ~n_pages:120 (det "cp") in
  let geometry =
    {
      Universe.default_geometry with
      Universe.data_blob_size = 8192;
      data_domain_bits = 14 (* low load so collisions are rare *);
    }
  in
  let u = Universe.create ~name:"corpus-universe" geometry in
  (* publish every site through the real publisher pipeline *)
  let published =
    List.map
      (fun (domain, pages) ->
        let site =
          {
            Publisher.domain;
            code = corpus_code domain;
            pages =
              List.map
                (fun p ->
                  let suffix =
                    let path = p.Lw_sim.Corpus.path in
                    String.sub path (String.length domain) (String.length path - String.length domain)
                  in
                  (suffix, Json.Obj [ ("body", Json.String p.Lw_sim.Corpus.body) ]))
                pages;
          }
        in
        match Publisher.push u ~publisher:("corp:" ^ domain) site with
        | Ok r -> (domain, pages, r)
        | Error e -> Alcotest.fail (domain ^ ": " ^ e))
      (Lw_sim.Corpus.to_sites corpus)
  in
  Alcotest.(check int) "all pages stored" 120
    (List.fold_left (fun acc (_, _, r) -> acc + r.Publisher.data_pushed) 0 published);
  (* browse a sample of pages through the full private stack *)
  let connect (s0, s1) =
    Result.get_ok (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ])
  in
  let b =
    Browser.create ~rng:(rng ())
      ~code:(connect (Universe.code_servers u))
      ~data:(connect (Universe.data_servers u))
      ()
  in
  let checked = ref 0 in
  List.iter
    (fun (domain, pages, r) ->
      let renamed = List.map fst r.Publisher.renamed in
      List.iteri
        (fun i p ->
          if i < 3 && not (List.mem p.Lw_sim.Corpus.path renamed) then begin
            match Browser.browse b p.Lw_sim.Corpus.path with
            | Ok page ->
                Alcotest.(check string) p.Lw_sim.Corpus.path p.Lw_sim.Corpus.body page.Browser.text;
                incr checked
            | Error e -> Alcotest.fail (Printf.sprintf "%s (%s): %s" p.Lw_sim.Corpus.path domain e)
          end)
        pages)
    published;
  Alcotest.(check bool) "checked a real sample" true (!checked >= 15)

(* ---------------- enclave-mode browsing ---------------- *)

let test_browser_over_enclave_data () =
  (* the browser works unchanged when the data session negotiates the
     enclave mode: GET(key)->value is the same primitive (§2.3) *)
  let u = Universe.create ~name:"enclave-browse" Universe.default_geometry in
  let site =
    {
      Publisher.domain = "enc.example";
      code =
        {|fn plan(path, state) { return ["enc.example/only.json"]; }
          fn render(path, state, data) {
            if (data[0] == null) { return "404"; }
            return get(data[0], "body", "?");
          }|};
      pages = [ ("/only.json", Json.Obj [ ("body", Json.String "served from the enclave") ]) ];
    }
  in
  (match Publisher.push u ~publisher:"e" site with Ok _ -> () | Error e -> Alcotest.fail e);
  let c0, c1 = Universe.code_servers u in
  let code_client =
    Result.get_ok (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint c0; Zltp_server.endpoint c1 ])
  in
  let enclave_server = Universe.enclave_data_server u in
  let data_client =
    Result.get_ok
      (Zltp_client.connect ~prefer:[ Zltp_mode.Enclave ] ~rng:(rng ())
         [ Zltp_server.endpoint enclave_server ])
  in
  Alcotest.(check bool) "enclave negotiated" true (Zltp_client.mode data_client = Zltp_mode.Enclave);
  let b = Browser.create ~rng:(rng ()) ~code:code_client ~data:data_client () in
  match Browser.browse b "enc.example/x" with
  | Ok page -> Alcotest.(check string) "rendered" "served from the enclave" page.Browser.text
  | Error e -> Alcotest.fail e

let test_enclave_zltp_through_secure_channel_over_tcp () =
  (* the full §2.2 enclave deployment: the ZLTP session runs inside an
     authenticated encrypted channel that terminates at the enclave, and
     the whole stack is carried over real TCP. The host relay (the TCP
     server process) sees only ciphertext. *)
  let u = Universe.create ~name:"attested" Universe.default_geometry in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"sgx.example");
  ignore
    (Universe.push_data u ~publisher:"p" ~path:"sgx.example/page"
       ~value:(Json.String "inside the enclave"));
  let enclave_server = Universe.enclave_data_server u in
  let enclave_identity = Lw_net.Secure_channel.keypair (rng ()) in
  let tcp =
    Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep ->
        match
          Lw_net.Secure_channel.server ~secret:enclave_identity.Lw_crypto.X25519.secret ep
        with
        | Ok secured -> Zltp_server.serve enclave_server secured
        | Error _ -> ())
  in
  let raw = Lw_net.Tcp.connect ~host:"127.0.0.1" ~port:(Lw_net.Tcp.port tcp) () in
  let secured =
    match
      Lw_net.Secure_channel.client
        ~server_public:enclave_identity.Lw_crypto.X25519.public ~rng:(rng ()) raw
    with
    | Ok ep -> ep
    | Error e -> Alcotest.fail e
  in
  let client =
    Result.get_ok (Zltp_client.connect ~prefer:[ Zltp_mode.Enclave ] ~rng:(rng ()) [ secured ])
  in
  (match Zltp_client.get client "sgx.example/page" with
  | Ok (Some v) -> Alcotest.(check string) "value" "\"inside the enclave\"" v
  | Ok None -> Alcotest.fail "not found"
  | Error e -> Alcotest.fail e);
  Zltp_client.close client;
  Lw_net.Tcp.shutdown tcp

(* ---------------- protocol robustness (fuzz) ---------------- *)

let test_server_never_crashes_on_garbage () =
  let u = Universe.create ~name:"fuzz" Universe.default_geometry in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"f.example");
  ignore (Universe.push_data u ~publisher:"p" ~path:"f.example/x" ~value:(Json.String "v"));
  let d0, _ = Universe.data_servers u in
  let conn = Zltp_server.conn d0 in
  let r = det "fuzz" in
  for _ = 1 to 2000 do
    let len = Lw_util.Det_rng.int r 200 in
    let frame = Lw_util.Det_rng.bytes r len in
    match Zltp_server.handle_frame conn frame with
    | Some _ | None -> ()
    | exception e -> Alcotest.fail ("server crashed: " ^ Printexc.to_string e)
  done

let test_server_rejects_mutated_valid_frames () =
  (* take a valid query frame and flip bytes: the server must answer with
     Err or a (harmless) Answer, never raise *)
  let u = Universe.create ~name:"fuzz2" Universe.default_geometry in
  let d0, _ = Universe.data_servers u in
  let conn = Zltp_server.conn d0 in
  (* negotiate first *)
  (match
     Zltp_server.handle conn
       (Zltp_wire.Hello { version = Zltp_wire.protocol_version; modes = [ Zltp_mode.Pir2 ] })
   with
  | Some (Zltp_wire.Welcome _) -> ()
  | _ -> Alcotest.fail "hello failed");
  let key, _ =
    Lw_dpf.Dpf.gen
      ~domain_bits:Universe.default_geometry.Universe.data_domain_bits
      ~alpha:5 (rng ())
  in
  let valid =
    Zltp_wire.encode_client (Zltp_wire.Pir_query { qid = 1; epoch = 0; dpf_key = Lw_dpf.Dpf.serialize key })
  in
  let r = det "mutate" in
  for _ = 1 to 500 do
    let b = Bytes.of_string valid in
    let i = Lw_util.Det_rng.int r (Bytes.length b) in
    Bytes.set b i (Char.chr (Lw_util.Det_rng.int r 256));
    match Zltp_server.handle_frame conn (Bytes.to_string b) with
    | Some _ | None -> ()
    | exception e -> Alcotest.fail ("server crashed: " ^ Printexc.to_string e)
  done

let test_client_handles_malformed_server () =
  (* a server speaking garbage must yield Error, not an exception *)
  let garbage_ep = Lw_net.Endpoint.loopback (fun _ -> "definitely not a zltp frame") in
  match Zltp_client.connect ~rng:(rng ()) [ garbage_ep ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "client accepted garbage"

let test_lightscript_fuzz_near_valid () =
  (* mutate a valid program: parse/run must never raise *)
  let src =
    "fn plan(p, s) { let xs = split(p, \"/\"); return [xs[1]]; }\n\
     fn render(p, s, d) { return \"ok\" + len(d); }"
  in
  let r = det "ls-fuzz" in
  for _ = 1 to 1000 do
    let b = Bytes.of_string src in
    let i = Lw_util.Det_rng.int r (Bytes.length b) in
    Bytes.set b i (Char.chr (32 + Lw_util.Det_rng.int r 95));
    match Lightscript.parse (Bytes.to_string b) with
    | Error _ -> ()
    | Ok p -> (
        match
          Lightscript.run ~gas:2000 p ~fn:"plan" ~args:[ Json.String "/a/b"; Json.Obj [] ]
        with
        | Ok _ | Error _ -> ())
    | exception e -> Alcotest.fail ("lightscript crashed: " ^ Printexc.to_string e)
  done

(* ---------------- timing/count leakage is as documented ---------------- *)

let test_leakage_is_exactly_counts_and_timing () =
  (* §3.2: the network attacker learns (a) when a new domain is visited
     (code fetch) and (b) how many pages are viewed — but nothing else.
     We confirm the event log carries exactly that. *)
  let site_code domain =
    Printf.sprintf
      {|fn plan(path, state) { return ["%s/a.json"]; }
        fn render(path, state, data) { return "x"; }|}
      domain
  in
  let u = Universe.create ~name:"leak" Universe.default_geometry in
  List.iter
    (fun d ->
      match
        Publisher.push u ~publisher:("p:" ^ d)
          { Publisher.domain = d; code = site_code d; pages = [ ("/a.json", Json.Null) ] }
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ "a.example"; "b.example" ];
  let connect (s0, s1) =
    Result.get_ok (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ])
  in
  let b =
    Browser.create ~rng:(rng ())
      ~code:(connect (Universe.code_servers u))
      ~data:(connect (Universe.data_servers u))
      ()
  in
  ignore (Browser.browse b "a.example/1");
  ignore (Browser.browse b "a.example/2");
  ignore (Browser.browse b "b.example/1");
  let events = Browser.events b in
  let codes = List.length (List.filter (fun e -> e = Browser.Code_fetch) events) in
  let datas = List.length (List.filter (fun e -> e = Browser.Data_fetch) events) in
  Alcotest.(check int) "2 new domains" 2 codes;
  Alcotest.(check int) "3 pages x 5 fetches" 15 datas

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "corpus to browser" `Slow test_corpus_pipeline;
          Alcotest.test_case "enclave-mode browsing" `Quick test_browser_over_enclave_data;
          Alcotest.test_case "enclave + secure channel + tcp" `Quick
            test_enclave_zltp_through_secure_channel_over_tcp;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "server survives garbage" `Quick test_server_never_crashes_on_garbage;
          Alcotest.test_case "server survives mutations" `Quick test_server_rejects_mutated_valid_frames;
          Alcotest.test_case "client survives bad server" `Quick test_client_handles_malformed_server;
          Alcotest.test_case "lightscript fuzz" `Quick test_lightscript_fuzz_near_valid;
        ] );
      ( "leakage",
        [ Alcotest.test_case "counts and timing only" `Quick test_leakage_is_exactly_counts_and_timing ] );
    ]
