(* Targeted coverage for paths the main suites exercise only in passing:
   CLI-facing helpers, error paths, observability counters, and smaller
   API corners across the tree. *)

open Lightweb
module Json = Lw_json.Json

let rng () = Lw_crypto.Drbg.create ~seed:"coverage"
let det = Lw_util.Det_rng.of_string_seed

(* ---------------- lw_util leftovers ---------------- *)

let test_hex_dump_format () =
  let out = Format.asprintf "%a" (Lw_util.Hex.dump ~width:8) "ABCDEFGH\x00\x01rest" in
  Alcotest.(check bool) "offsets" true
    (String.length out > 0
    && String.sub out 0 8 = "00000000"
    && String.index_opt out '|' <> None);
  (* printable vs non-printable rendering *)
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "two lines of 8" true (List.length lines >= 2)

let test_det_rng_pick () =
  let r = det "pick" in
  for _ = 1 to 50 do
    let v = Lw_util.Det_rng.pick r [| 10; 20; 30 |] in
    Alcotest.(check bool) "member" true (List.mem v [ 10; 20; 30 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Det_rng.pick: empty array") (fun () ->
      ignore (Lw_util.Det_rng.pick r [||]))

let test_stats_errors () =
  Alcotest.check_raises "empty summarize" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Lw_util.Stats.summarize [||]));
  Alcotest.check_raises "bad percentile" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Lw_util.Stats.percentile [| 1. |] 101.))

(* ---------------- crypto corners ---------------- *)

let test_drbg_reseed_diverges () =
  let a = Lw_crypto.Drbg.create ~seed:"same" in
  let b = Lw_crypto.Drbg.create ~seed:"same" in
  Lw_crypto.Drbg.reseed a "extra entropy";
  Alcotest.(check bool) "diverged" true
    (not (String.equal (Lw_crypto.Drbg.generate a 32) (Lw_crypto.Drbg.generate b 32)))

let test_chacha_validation () =
  Alcotest.check_raises "bad key" (Invalid_argument "Chacha20.block: key must be 32 bytes")
    (fun () -> Lw_crypto.Chacha20.block ~key:"short" ~nonce:(String.make 12 'n') ~counter:0l (Bytes.create 64));
  Alcotest.check_raises "bad rounds" (Invalid_argument "Chacha20.block: rounds must be even")
    (fun () ->
      Lw_crypto.Chacha20.block ~rounds:7 ~key:(String.make 32 'k') ~nonce:(String.make 12 'n')
        ~counter:0l (Bytes.create 64))

let test_hkdf_length_guard () =
  let prk = Lw_crypto.Hmac.hkdf_extract "ikm" in
  Alcotest.check_raises "too long" (Invalid_argument "Hmac.hkdf_expand: bad length") (fun () ->
      ignore (Lw_crypto.Hmac.hkdf_expand ~prk ~info:"" ~len:(255 * 32 + 1)))

let test_aead_short_input () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  Alcotest.(check (option string)) "shorter than a tag" None
    (Lw_crypto.Aead.open_ ~key ~nonce "tiny")

(* ---------------- zltp details ---------------- *)

let test_batch_delivery_order () =
  let st = Lw_store.create ~domain_bits:5 ~bucket_size:32 () in
  let w = Lw_store.writer st in
  Lw_store.Writer.fill_random w (det "order");
  let b = Zltp_batch.create ~batch_size:3 (Lw_pir.Server.of_snapshot (Lw_store.Writer.seal w)) in
  let order = ref [] in
  for i = 0 to 2 do
    let k, _ = Lw_dpf.Dpf.gen ~domain_bits:5 ~alpha:i (rng ()) in
    Zltp_batch.submit b k (fun _ -> order := i :: !order)
  done;
  Alcotest.(check (list int)) "delivered in submit order" [ 0; 1; 2 ] (List.rev !order)

let test_batch_flush_empty_noop () =
  let st = Lw_store.create ~domain_bits:4 ~bucket_size:16 () in
  let b = Zltp_batch.create (Lw_pir.Server.of_snapshot (Lw_store.current st)) in
  Zltp_batch.flush b;
  Alcotest.(check int) "no batch ran" 0 (Zltp_batch.batches_executed b)

let test_server_stats_counter () =
  let u = Universe.create ~name:"stats" Universe.default_geometry in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"s.example");
  ignore (Universe.push_data u ~publisher:"p" ~path:"s.example/x" ~value:Json.Null);
  let d0, d1 = Universe.data_servers u in
  let client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ])
  in
  ignore (Zltp_client.get client "s.example/x");
  ignore (Zltp_client.get client "s.example/y");
  Alcotest.(check int) "server 0 counted" 2 (Zltp_server.queries_served d0);
  Alcotest.(check int) "server 1 counted" 2 (Zltp_server.queries_served d1);
  Alcotest.(check int) "client counted" 2 (Zltp_client.queries_sent client)

let test_client_get_raw_index () =
  let u = Universe.create ~name:"raw" Universe.default_geometry in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"r.example");
  ignore (Universe.push_data u ~publisher:"p" ~path:"r.example/x" ~value:(Json.String "v"));
  let d0, d1 = Universe.data_servers u in
  let client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ])
  in
  (* out-of-domain index rejected client-side *)
  Alcotest.(check bool) "oob" true (Result.is_error (Zltp_client.get_raw_index client (1 lsl 30)));
  (* valid index returns a full bucket *)
  match Zltp_client.get_raw_index client 0 with
  | Ok bucket ->
      Alcotest.(check int) "bucket size" Universe.default_geometry.Universe.data_blob_size
        (String.length bucket)
  | Error e -> Alcotest.fail e

let test_mode_metadata () =
  Alcotest.(check (option string)) "tag roundtrip pir" (Some "pir2")
    (Option.map Zltp_mode.name (Zltp_mode.of_tag (Zltp_mode.to_tag Zltp_mode.Pir2)));
  Alcotest.(check (option string)) "tag roundtrip enclave" (Some "enclave")
    (Option.map Zltp_mode.name (Zltp_mode.of_tag (Zltp_mode.to_tag Zltp_mode.Enclave)));
  Alcotest.(check bool) "unknown tag" true (Zltp_mode.of_tag 99 = None);
  List.iter
    (fun m -> Alcotest.(check bool) "has assumptions" true (Zltp_mode.assumptions m <> []))
    Zltp_mode.all

(* ---------------- universe / publisher corners ---------------- *)

let test_universe_remove_data () =
  let u = Universe.create ~name:"rm" Universe.default_geometry in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"rm.example");
  ignore (Universe.push_data u ~publisher:"p" ~path:"rm.example/x" ~value:Json.Null);
  Alcotest.(check int) "one page" 1 (Universe.page_count u);
  (match Universe.remove_data u ~publisher:"p" ~path:"rm.example/x" with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "nothing removed"
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "empty" 0 (Universe.page_count u);
  Alcotest.(check (list string)) "paths empty" [] (Universe.data_paths u);
  (* removing someone else's content is refused *)
  ignore (Universe.push_data u ~publisher:"p" ~path:"rm.example/y" ~value:Json.Null);
  Alcotest.(check bool) "wrong publisher" true
    (Result.is_error (Universe.remove_data u ~publisher:"q" ~path:"rm.example/y"))

let test_universe_stats_shape () =
  let u = Universe.create ~name:"st" Universe.default_geometry in
  let stats = Universe.stats u in
  List.iter
    (fun key -> Alcotest.(check bool) key true (List.mem_assoc key stats))
    [ "domains"; "code blobs"; "data blobs"; "fetches per page" ]

let test_publisher_rename_report () =
  (* force collisions with a 2-bit data domain *)
  let u =
    Universe.create ~name:"tiny"
      { Universe.default_geometry with Universe.data_domain_bits = 2 }
  in
  let site =
    {
      Publisher.domain = "t.example";
      code = "fn plan(p,s){return [];} fn render(p,s,d){return \"\";}";
      pages = List.init 4 (fun i -> (Printf.sprintf "/p%d.json" i, Json.Null));
    }
  in
  match Publisher.push u ~publisher:"t" site with
  | Ok r ->
      Alcotest.(check int) "all stored despite collisions" 4 r.Publisher.data_pushed;
      Alcotest.(check bool) "some renames happened" true (List.length r.Publisher.renamed > 0)
  | Error e -> Alcotest.fail e

(* ---------------- browser corners ---------------- *)

let connect_browser u =
  let connect (s0, s1) =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ])
  in
  Browser.create ~rng:(rng ())
    ~code:(connect (Universe.code_servers u))
    ~data:(connect (Universe.data_servers u))
    ()

let test_browser_script_failure_is_error () =
  let u = Universe.create ~name:"bad" Universe.default_geometry in
  (* plan returns a non-list *)
  ignore
    (Publisher.push u ~publisher:"b"
       {
         Publisher.domain = "bad.example";
         code = "fn plan(p,s){return 42;} fn render(p,s,d){return \"\";}";
         pages = [];
       });
  (match Browser.browse (connect_browser u) "bad.example/x" with
  | Error e -> Alcotest.(check bool) ("plan type error: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should fail");
  (* render returns a non-string *)
  let u2 = Universe.create ~name:"bad2" Universe.default_geometry in
  ignore
    (Publisher.push u2 ~publisher:"b"
       {
         Publisher.domain = "bad2.example";
         code = "fn plan(p,s){return [];} fn render(p,s,d){return {};}";
         pages = [];
       });
  match Browser.browse (connect_browser u2) "bad2.example/x" with
  | Error e -> Alcotest.(check bool) ("render type error: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should fail"

let test_browser_gas_limit_enforced () =
  let u = Universe.create ~name:"gas" Universe.default_geometry in
  ignore
    (Publisher.push u ~publisher:"g"
       {
         Publisher.domain = "gas.example";
         code =
           "fn plan(p,s){ while (true) { } return []; } fn render(p,s,d){return \"\";}";
         pages = [];
       });
  let connect (s0, s1) =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ])
  in
  let b =
    Browser.create ~gas:5000 ~rng:(rng ())
      ~code:(connect (Universe.code_servers u))
      ~data:(connect (Universe.data_servers u))
      ()
  in
  match Browser.browse b "gas.example/x" with
  | Error e -> Alcotest.(check bool) ("gassed: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "hostile loop must not complete"

let test_browser_truncates_greedy_plan () =
  (* a plan asking for more than k keys gets exactly k fetches *)
  let u = Universe.create ~name:"greedy" Universe.default_geometry in
  ignore
    (Publisher.push u ~publisher:"g"
       {
         Publisher.domain = "greedy.example";
         code =
           {|fn plan(p,s){
               let keys = [];
               for (i in range(20)) { keys = push(keys, "greedy.example/k" + i); }
               return keys;
             }
             fn render(p,s,d){ return "got " + len(d); }|};
         pages = [];
       });
  match Browser.browse (connect_browser u) "greedy.example/x" with
  | Ok page ->
      Alcotest.(check int) "planned 20" 20 page.Browser.planned;
      Alcotest.(check int) "fetched 5" 5 page.Browser.fetched;
      Alcotest.(check string) "render saw only 5" "got 5" page.Browser.text
  | Error e -> Alcotest.fail e

(* ---------------- wan / endpoint corners ---------------- *)

let test_wan_labels () =
  let link = Lw_net.Wan.link () in
  let ep = Lw_net.Wan.attach link ~label:"code0" (Lw_net.Endpoint.loopback (fun x -> x)) in
  ep.Lw_net.Endpoint.send "m";
  ignore (ep.Lw_net.Endpoint.recv ());
  List.iter
    (fun e -> Alcotest.(check string) "label carried" "code0" e.Lw_net.Wan.label)
    (Lw_net.Wan.events link)

let test_frame_encode_bounds () =
  Alcotest.check_raises "oversized" (Invalid_argument "Frame.encode: frame too large") (fun () ->
      ignore (Lw_net.Frame.encode (String.make (Lw_net.Frame.max_frame_size + 1) 'x')))

(* ---------------- sim corners ---------------- *)

let test_corpus_to_sites_partition () =
  let c = Lw_sim.Corpus.generate ~sites:5 Lw_sim.Corpus.wikipedia ~n_pages:40 (det "part") in
  let sites = Lw_sim.Corpus.to_sites c in
  (* a page appears under exactly the site its path names *)
  List.iter
    (fun (domain, pages) ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "prefix" true
            (String.length p.Lw_sim.Corpus.path > String.length domain
            && String.sub p.Lw_sim.Corpus.path 0 (String.length domain) = domain))
        pages)
    sites

let test_cost_model_bucket_override () =
  let open Lw_sim in
  let e =
    Cost_model.estimate ~bucket_bytes:1024 (Cost_model.of_profile Corpus.c4)
      Cost_model.paper_shard Cost_model.c5_large
  in
  Alcotest.(check (float 0.001)) "download is 2 x 1 KiB" 2.0 e.Cost_model.download_kib

let test_workload_determinism () =
  let a = Lw_sim.Workload.generate Lw_sim.Workload.default_params (det "w") in
  let b = Lw_sim.Workload.generate Lw_sim.Workload.default_params (det "w") in
  Alcotest.(check bool) "same" true (a = b)

let () =
  Alcotest.run "coverage"
    [
      ( "util",
        [
          Alcotest.test_case "hex dump" `Quick test_hex_dump_format;
          Alcotest.test_case "rng pick" `Quick test_det_rng_pick;
          Alcotest.test_case "stats errors" `Quick test_stats_errors;
        ] );
      ( "crypto",
        [
          Alcotest.test_case "drbg reseed" `Quick test_drbg_reseed_diverges;
          Alcotest.test_case "chacha validation" `Quick test_chacha_validation;
          Alcotest.test_case "hkdf guard" `Quick test_hkdf_length_guard;
          Alcotest.test_case "aead short input" `Quick test_aead_short_input;
        ] );
      ( "zltp",
        [
          Alcotest.test_case "batch delivery order" `Quick test_batch_delivery_order;
          Alcotest.test_case "flush empty" `Quick test_batch_flush_empty_noop;
          Alcotest.test_case "stats counters" `Quick test_server_stats_counter;
          Alcotest.test_case "raw index fetch" `Quick test_client_get_raw_index;
          Alcotest.test_case "mode metadata" `Quick test_mode_metadata;
        ] );
      ( "universe",
        [
          Alcotest.test_case "remove data" `Quick test_universe_remove_data;
          Alcotest.test_case "stats shape" `Quick test_universe_stats_shape;
          Alcotest.test_case "rename report" `Quick test_publisher_rename_report;
        ] );
      ( "browser",
        [
          Alcotest.test_case "script failures" `Quick test_browser_script_failure_is_error;
          Alcotest.test_case "gas enforced" `Quick test_browser_gas_limit_enforced;
          Alcotest.test_case "greedy plan truncated" `Quick test_browser_truncates_greedy_plan;
        ] );
      ( "net",
        [
          Alcotest.test_case "wan labels" `Quick test_wan_labels;
          Alcotest.test_case "frame bounds" `Quick test_frame_encode_bounds;
        ] );
      ( "sim",
        [
          Alcotest.test_case "corpus partition" `Quick test_corpus_to_sites_partition;
          Alcotest.test_case "bucket override" `Quick test_cost_model_bucket_override;
          Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
        ] );
    ]
