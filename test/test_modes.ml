(* Cross-backend oracle: ONE universe, served under all three deployment
   models (two-server PIR, single-server PIR, enclave), must hand every
   client byte-identical pages — across epochs, under stale-pinned
   visit reads, and in batches. Plus the ranked mode-negotiation matrix
   over every non-empty client/server offer subset, Single mode
   end-to-end over real TCP (epoch pinning, resync, batch), and golden
   digests of the client's wire transcripts per mode x verb.
   `dune build @modes` runs just this suite. *)

open Lightweb
module Json = Lw_json.Json

let rng seed = Lw_crypto.Drbg.create ~seed

(* ---------------- fixture: one universe, two generations ---------------- *)

let site = "modes.example"
let page_paths = List.map (fun i -> Printf.sprintf "%s/page-%d.json" site i) [ 0; 1; 2; 3; 4 ]

let page_value ~gen path = Json.String (Printf.sprintf "%s gen-%d" path gen)

let push_generation u ~gen =
  List.iter
    (fun path ->
      match Universe.push_data u ~publisher:"pub" ~path ~value:(page_value ~gen path) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "push %s: %s" path e)
    page_paths;
  ignore (Universe.publish_updates u)

let build_universe () =
  let u = Universe.create ~name:"modes-oracle" Universe.default_geometry in
  (match Universe.claim_domain u ~publisher:"pub" ~domain:site with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  push_generation u ~gen:0;
  u

(* One client per deployment model over the same universe. The enclave
   server snapshots the store at construction, so oracle rounds build a
   fresh one after each publish. *)
let pir2_client u seed =
  let s0, s1 = Universe.data_servers u in
  Zltp_client.connect ~rng:(rng seed) [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ]

let single_client u seed =
  let s = Universe.single_data_server u in
  Zltp_client.connect ~prefer:[ Zltp_mode.Single ] ~rng:(rng seed)
    [ Zltp_server.endpoint s ]

let enclave_client u seed =
  let s = Universe.enclave_data_server u in
  Zltp_client.connect ~prefer:[ Zltp_mode.Enclave ] ~rng:(rng seed)
    [ Zltp_server.endpoint s ]

let connected = function
  | Ok c -> c
  | Error e -> Alcotest.failf "connect failed: %s" e

let get_exn label client path =
  match Zltp_client.get client path with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: get %s: %s" label path e

(* ---------------- the oracle ---------------- *)

let test_oracle_three_modes () =
  let u = build_universe () in
  let round gen =
    (* fresh clients each round: a fresh Welcome pins the new epoch *)
    let c2 = connected (pir2_client u (Printf.sprintf "oracle-pir2-%d" gen)) in
    let c1 = connected (single_client u (Printf.sprintf "oracle-single-%d" gen)) in
    let ce = connected (enclave_client u (Printf.sprintf "oracle-enclave-%d" gen)) in
    Alcotest.(check bool) "pir2 mode" true (Zltp_client.mode c2 = Zltp_mode.Pir2);
    Alcotest.(check bool) "single mode" true (Zltp_client.mode c1 = Zltp_mode.Single);
    Alcotest.(check bool) "enclave mode" true (Zltp_client.mode ce = Zltp_mode.Enclave);
    List.iter
      (fun path ->
        let v2 = get_exn "pir2" c2 path in
        let v1 = get_exn "single" c1 path in
        let ve = get_exn "enclave" ce path in
        let expected = Universe.data_value u path in
        Alcotest.(check (option string))
          (Printf.sprintf "gen %d %s: single = pir2" gen path)
          v2 v1;
        Alcotest.(check (option string))
          (Printf.sprintf "gen %d %s: enclave = pir2" gen path)
          v2 ve;
        Alcotest.(check (option string))
          (Printf.sprintf "gen %d %s: matches publisher copy" gen path)
          expected v2)
      page_paths;
    (* an absent key misses identically in all three modes *)
    let ghost = site ^ "/no-such-page.json" in
    Alcotest.(check (option string)) "pir2 miss" None (get_exn "pir2" c2 ghost);
    Alcotest.(check (option string)) "single miss" None (get_exn "single" c1 ghost);
    Alcotest.(check (option string)) "enclave miss" None (get_exn "enclave" ce ghost);
    List.iter Zltp_client.close [ c2; c1; ce ]
  in
  round 0;
  push_generation u ~gen:1;
  round 1

let test_oracle_stale_pinned_visit () =
  (* both versioned modes pin the visit's first epoch: a mid-visit
     publish must not bleed new bytes into the visit, and the two
     stale reads must stay byte-identical to each other *)
  let u = build_universe () in
  let c2 = connected (pir2_client u "stale-pir2") in
  let c1 = connected (single_client u "stale-single") in
  Zltp_client.begin_visit c2;
  Zltp_client.begin_visit c1;
  let path = List.hd page_paths in
  let gen0_pir2 = get_exn "pir2" c2 path in
  let gen0_single = get_exn "single" c1 path in
  Alcotest.(check (option string)) "pre-publish agreement" gen0_pir2 gen0_single;
  push_generation u ~gen:1;
  (* the publisher moved on; the pinned visits must not *)
  let stale_pir2 = get_exn "pir2" c2 path in
  let stale_single = get_exn "single" c1 path in
  Alcotest.(check (option string)) "pir2 visit stays pinned" gen0_pir2 stale_pir2;
  Alcotest.(check (option string)) "single visit stays pinned" gen0_single stale_single;
  Alcotest.(check int) "pir2 visit never re-synced" 0 (Zltp_client.epoch_resyncs c2);
  Alcotest.(check int) "single visit never re-synced" 0 (Zltp_client.epoch_resyncs c1);
  Zltp_client.end_visit c2;
  Zltp_client.end_visit c1;
  (* fresh clients (fresh Welcome) see generation 1, still in lockstep *)
  let c2' = connected (pir2_client u "fresh-pir2") in
  let c1' = connected (single_client u "fresh-single") in
  let new_pir2 = get_exn "pir2" c2' path in
  let new_single = get_exn "single" c1' path in
  Alcotest.(check (option string)) "post-publish agreement" new_pir2 new_single;
  Alcotest.(check bool) "the publish was visible" false (gen0_pir2 = new_pir2);
  List.iter Zltp_client.close [ c2; c1; c2'; c1' ]

let test_oracle_batch () =
  let u = build_universe () in
  let c2 = connected (pir2_client u "batch-pir2") in
  let c1 = connected (single_client u "batch-single") in
  let keys = (site ^ "/no-such-page.json") :: page_paths in
  let b2 =
    match Zltp_client.get_batch c2 keys with
    | Ok vs -> vs
    | Error e -> Alcotest.failf "pir2 batch: %s" e
  in
  let b1 =
    match Zltp_client.get_batch c1 keys with
    | Ok vs -> vs
    | Error e -> Alcotest.failf "single batch: %s" e
  in
  Alcotest.(check (list (option string))) "batch agreement" b2 b1;
  Alcotest.(check (option string)) "batch miss" None (List.hd b1);
  Alcotest.(check int) "batch covers every key" (List.length keys) (List.length b1);
  Zltp_client.close c2;
  Zltp_client.close c1

(* ---------------- negotiation matrix ---------------- *)

let test_negotiate_all_subsets () =
  let modes = [ Zltp_mode.Single; Zltp_mode.Pir2; Zltp_mode.Enclave ] in
  (* all 7 non-empty subsets, in varied member order *)
  let subsets =
    List.filter (fun s -> s <> []) (List.concat_map (fun s -> [ s; List.rev s ])
      [
        [ Zltp_mode.Single ]; [ Zltp_mode.Pir2 ]; [ Zltp_mode.Enclave ];
        [ Zltp_mode.Single; Zltp_mode.Pir2 ]; [ Zltp_mode.Pir2; Zltp_mode.Enclave ];
        [ Zltp_mode.Enclave; Zltp_mode.Single ];
        [ Zltp_mode.Enclave; Zltp_mode.Pir2; Zltp_mode.Single ];
      ])
  in
  (* independent model: lowest-rank member of the intersection *)
  let expected client server =
    List.filter (fun m -> List.mem m client && List.mem m server) modes
    |> List.sort (fun a b -> compare (Zltp_mode.rank a) (Zltp_mode.rank b))
    |> function [] -> None | m :: _ -> Some m
  in
  List.iter
    (fun client ->
      List.iter
        (fun server ->
          let want = expected client server in
          let got = Zltp_mode.negotiate ~client ~server in
          if got <> want then
            Alcotest.failf "negotiate [%s] vs [%s]: got %s, want %s"
              (String.concat ";" (List.map Zltp_mode.name client))
              (String.concat ";" (List.map Zltp_mode.name server))
              (match got with Some m -> Zltp_mode.name m | None -> "none")
              (match want with Some m -> Zltp_mode.name m | None -> "none"))
        subsets)
    subsets;
  (* the documented ordering itself *)
  Alcotest.(check (list int)) "assumption ranks" [ 0; 1; 2 ]
    (List.map Zltp_mode.rank Zltp_mode.all);
  let mentions needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "single's assumption names LWE" true
    (List.exists (mentions "LWE") (Zltp_mode.assumptions Zltp_mode.Single))

(* ---------------- Single end-to-end over TCP ---------------- *)

let test_single_over_tcp () =
  let u = build_universe () in
  let server = Universe.single_data_server u in
  let tcp =
    Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep -> Zltp_server.serve server ep)
  in
  let dial () = Ok (Lw_net.Tcp.connect ~host:"127.0.0.1" ~port:(Lw_net.Tcp.port tcp) ()) in
  let client =
    connected
      (Zltp_client.connect_replicated ~prefer:[ Zltp_mode.Single ] ~rng:(rng "tcp-single")
         [ [ Zltp_client.replica ~name:"single-tcp" dial ] ])
  in
  Alcotest.(check bool) "negotiated Single" true (Zltp_client.mode client = Zltp_mode.Single);
  (* plain GETs against the publisher's copy *)
  List.iter
    (fun path ->
      Alcotest.(check (option string)) ("tcp " ^ path) (Universe.data_value u path)
        (get_exn "tcp-single" client path))
    page_paths;
  (* epoch pinning across a mid-visit publish *)
  Zltp_client.begin_visit client;
  let path = List.hd page_paths in
  let pinned = get_exn "tcp-single" client path in
  push_generation u ~gen:1;
  Alcotest.(check (option string)) "tcp visit stays pinned" pinned
    (get_exn "tcp-single" client path);
  Zltp_client.end_visit client;
  (* batch, one epoch for the whole run *)
  (match Zltp_client.get_batch client page_paths with
  | Ok vs ->
      Alcotest.(check int) "tcp batch width" (List.length page_paths) (List.length vs)
  | Error e -> Alcotest.failf "tcp batch: %s" e);
  Zltp_client.close client;
  Lw_net.Tcp.shutdown tcp

let test_single_resync_over_tcp () =
  (* keep=1 store: sealing epoch 2 retires epoch 1 under the client's
     feet mid-session; the next op must transparently re-sync (dropping
     the cached hint) and answer from the new epoch *)
  let domain_bits = 6 and bucket_size = 32 in
  let st = Lw_store.create ~keep:1 ~domain_bits ~bucket_size () in
  let fill g =
    let w = Lw_store.writer st in
    for i = 0 to (1 lsl domain_bits) - 1 do
      Lw_store.Writer.set w i (Printf.sprintf "tcp-%d-gen-%d" i g)
    done;
    ignore (Lw_store.Writer.seal w)
  in
  let pad s = s ^ String.make (bucket_size - String.length s) '\000' in
  fill 0;
  let server =
    Zltp_server.create ~server_id:"single-keep1" ~blob_size:bucket_size
      (Zltp_backend.single st)
  in
  let tcp =
    Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep -> Zltp_server.serve server ep)
  in
  let dial () = Ok (Lw_net.Tcp.connect ~host:"127.0.0.1" ~port:(Lw_net.Tcp.port tcp) ()) in
  let client =
    connected
      (Zltp_client.connect_replicated ~prefer:[ Zltp_mode.Single ] ~rng:(rng "tcp-resync")
         [ [ Zltp_client.replica ~name:"single-keep1" dial ] ])
  in
  (match Zltp_client.get_raw_index client 3 with
  | Ok b -> Alcotest.(check string) "epoch 1 bytes" (pad "tcp-3-gen-0") b
  | Error e -> Alcotest.fail e);
  fill 1 (* retires epoch 1 *);
  (match Zltp_client.get_raw_index client 3 with
  | Ok b -> Alcotest.(check string) "post-retirement bytes" (pad "tcp-3-gen-1") b
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "re-synced at least once" true (Zltp_client.epoch_resyncs client >= 1);
  Zltp_client.close client;
  Lw_net.Tcp.shutdown tcp

(* ---------------- golden wire transcripts ---------------- *)

(* Every frame the client sends, per role, under a fixed DRBG seed and a
   virtual clock, digested, plus a digest of each op's result. The table
   below was recorded from the client whose request path still had one
   attempt function per mode x verb (the double failover, from the
   client that left its two re-dials to OCaml's evaluation order), and
   is never re-recorded: a client change that moves a byte on the wire
   (RNG or qid order, frame layout, retry, failover or resync behaviour)
   fails here. *)

let hex s = Digest.to_hex (Digest.string s)

let show_result = function
  | Ok v -> "ok " ^ v
  | Error e -> "error " ^ e

let show_opt = function Some v -> "some " ^ v | None -> "none"

let show_opts vs = String.concat "|" (List.map show_opt vs)
let op_get key c = Result.map show_opt (Zltp_client.get c key)
let op_raw i c = Zltp_client.get_raw_index c i
let op_batch keys c = Result.map show_opts (Zltp_client.get_batch c keys)
let op_kw key c = Result.map show_opt (Zltp_client.keyword_get c key)
let op_kw_batch keys c = Result.map show_opts (Zltp_client.keyword_get_batch c keys)

(* [roles]: per role, per replica, the fault schedule and the endpoint
   to dial. Returns the per-role stream digests then the op digests. *)
let golden_case ~prefer ~seed roles ops =
  let clock = Lw_obs.Clock.virtual_ () in
  let logs = List.map (fun _ -> ref []) roles in
  let replicas =
    List.mapi
      (fun r replicas ->
        let log = List.nth logs r in
        List.mapi
          (fun k (schedule, dial) ->
            Zltp_client.replica ~name:(Printf.sprintf "r%d.%d" r k) (fun () ->
                let ep, _ = Lw_net.Faulty.wrap ~clock schedule (dial ()) in
                Ok
                  {
                    ep with
                    Lw_net.Endpoint.send =
                      (fun m ->
                        log := m :: !log;
                        ep.Lw_net.Endpoint.send m);
                  }))
          replicas)
      roles
  in
  let client =
    connected (Zltp_client.connect_replicated ~prefer ~rng:(rng seed) ~clock replicas)
  in
  let results = List.map (fun (label, op) -> (label, hex (show_result (op client)))) (ops client) in
  Zltp_client.close client;
  List.mapi
    (fun r log -> (Printf.sprintf "role%d" r, hex (String.concat "" (List.rev !log))))
    logs
  @ results

let clean dial = (Lw_net.Faulty.none, dial)
let ep_of s () = Zltp_server.endpoint s

(* keep:1 store of 2^6 32-byte buckets: sealing generation [g] retires
   the epoch before it *)
let keep1_store () =
  let st = Lw_store.create ~keep:1 ~domain_bits:6 ~bucket_size:32 () in
  let fill g =
    let w = Lw_store.writer st in
    for i = 0 to 63 do
      Lw_store.Writer.set w i (Printf.sprintf "golden-%d-gen-%d" i g)
    done;
    ignore (Lw_store.Writer.seal w)
  in
  fill 0;
  (st, fill)

(* a visit pins epoch 1, then a seal retires it: the next op's first
   attempt meets [err_epoch_retired], re-syncs and retries *)
let resync_ops fill c =
  Zltp_client.begin_visit c;
  [
    ("raw before seal", op_raw 3);
    ( "raw after seal",
      fun c ->
        fill 1;
        op_raw 3 c );
    ("batch after seal", op_batch [ "k0"; "k1" ]);
    ( "end visit",
      fun c ->
        Zltp_client.end_visit c;
        Ok (string_of_int (Zltp_client.epoch_resyncs c)) );
  ]

let golden_cases () =
  let u = Universe.create ~name:"modes-golden" Universe.default_geometry in
  (match Universe.claim_domain u ~publisher:"pub" ~domain:site with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  push_generation u ~gen:0;
  let p0 = List.nth page_paths 0 and p3 = List.nth page_paths 3 in
  let ghost = site ^ "/no-such-page.json" in
  let keyed = [ p3; ghost; p0; List.nth page_paths 4 ] in
  let d0, d1 = Universe.data_servers u and k0, k1 = Universe.keyword_servers u in
  let pir2 = [ Zltp_mode.Pir2; Zltp_mode.Enclave; Zltp_mode.Single ] in
  let drop_first_answer = Lw_net.Faulty.of_plan ~recv:[ (2, Lw_net.Faulty.Drop) ] () in
  [
    ( "pir2",
      golden_case ~prefer:pir2 ~seed:"golden-pir2"
        [ [ clean (ep_of d0) ]; [ clean (ep_of d1) ] ]
        (fun _ ->
          [
            ("get", op_get p0);
            ("get miss", op_get ghost);
            ("get_raw_index", op_raw 77);
            ("get_batch", op_batch keyed);
          ]) );
    ( "pir2 keyword",
      golden_case ~prefer:pir2 ~seed:"golden-keyword"
        [ [ clean (ep_of k0) ]; [ clean (ep_of k1) ] ]
        (fun _ ->
          [
            ("keyword_get", op_kw p3);
            ("keyword_get miss", op_kw ghost);
            ("keyword_get_batch", op_kw_batch keyed);
          ]) );
    ( "single",
      golden_case ~prefer:[ Zltp_mode.Single ] ~seed:"golden-single"
        [ [ clean (ep_of (Universe.single_data_server u)) ] ]
        (fun _ ->
          [
            ("get", op_get p0);
            ("get_raw_index", op_raw 77);
            ("get_batch", op_batch keyed);
          ]) );
    ( "enclave",
      golden_case ~prefer:[ Zltp_mode.Enclave ] ~seed:"golden-enclave"
        [ [ clean (ep_of (Universe.enclave_data_server u)) ] ]
        (fun _ -> [ ("get", op_get p0); ("get_batch", op_batch keyed) ]) );
    ( "pir2 failover",
      (* role 0's first replica swallows its first answer: timeout,
         failover to the second replica, retry with fresh keys *)
      golden_case ~prefer:pir2 ~seed:"golden-failover"
        [ [ (drop_first_answer, ep_of d0); clean (ep_of d0) ]; [ clean (ep_of d1) ] ]
        (fun c ->
          [
            ("get", op_get p3);
            ("get_batch", op_batch keyed);
            ( "counters",
              fun _ ->
                Ok (Printf.sprintf "%d/%d" (Zltp_client.retries c) (Zltp_client.failovers c)) );
          ]) );
    ( "pir2 double failover",
      (* both roles' first replicas swallow their first answer: both
         fail over, and the retry re-dials the two roles, whose Health
         qids record the order the client dials them in *)
      golden_case ~prefer:pir2 ~seed:"golden-double-failover"
        [
          [ (drop_first_answer, ep_of d0); clean (ep_of d0) ];
          [ (drop_first_answer, ep_of d1); clean (ep_of d1) ];
        ]
        (fun c ->
          [
            ("get", op_get p3);
            ( "counters",
              fun _ ->
                Ok (Printf.sprintf "%d/%d" (Zltp_client.retries c) (Zltp_client.failovers c)) );
          ]) );
    ( "pir2 resync",
      let st, fill = keep1_store () in
      let server id = Zltp_server.create ~server_id:id ~blob_size:32 (Zltp_backend.versioned st) in
      let s0 = server "keep1-a" and s1 = server "keep1-b" in
      golden_case ~prefer:pir2 ~seed:"golden-resync-pir2"
        [ [ clean (ep_of s0) ]; [ clean (ep_of s1) ] ]
        (resync_ops fill) );
    ( "single resync",
      (* the re-sync drops the cached hint: the retry re-fetches it *)
      let st, fill = keep1_store () in
      let s = Zltp_server.create ~server_id:"keep1-single" ~blob_size:32 (Zltp_backend.single st) in
      golden_case ~prefer:[ Zltp_mode.Single ] ~seed:"golden-resync-single"
        [ [ clean (ep_of s) ] ]
        (resync_ops fill) );
  ]

let golden =
  [
    ("pir2: role0", "eebac3634dd1bf3e92754245b12a1e35");
    ("pir2: role1", "868de485132ff4495cfd273ebe5b8d58");
    ("pir2: get", "d11e65702227ad2d629f3ea19dbfb8a5");
    ("pir2: get miss", "4c88b9403b6c837b527638c5b214f9e0");
    ("pir2: get_raw_index", "5d0da0e605b52f0283bbcb8045daa219");
    ("pir2: get_batch", "a3cbacdb701369849bd9cbff0a781372");
    ("pir2 keyword: role0", "dd66d8ab72124993deaf83c893668516");
    ("pir2 keyword: role1", "a12623eadb67d8d786c2d3cda4bac901");
    ("pir2 keyword: keyword_get", "33b161ab1f7b5fcaf2e9c3b8379c96f6");
    ("pir2 keyword: keyword_get miss", "4c88b9403b6c837b527638c5b214f9e0");
    ("pir2 keyword: keyword_get_batch", "a3cbacdb701369849bd9cbff0a781372");
    ("single: role0", "fc423b4ae3f59da5efea013ac4d1ad14");
    ("single: get", "d11e65702227ad2d629f3ea19dbfb8a5");
    ("single: get_raw_index", "5d0da0e605b52f0283bbcb8045daa219");
    ("single: get_batch", "a3cbacdb701369849bd9cbff0a781372");
    ("enclave: role0", "6ab3b818efddfc6982af2bf7ed22b966");
    ("enclave: get", "d11e65702227ad2d629f3ea19dbfb8a5");
    ("enclave: get_batch", "a3cbacdb701369849bd9cbff0a781372");
    ("pir2 failover: role0", "45adbd5a16f570abff317f1c958cd10a");
    ("pir2 failover: role1", "bf0e25181bf5b93935b23b9e822c3130");
    ("pir2 failover: get", "33b161ab1f7b5fcaf2e9c3b8379c96f6");
    ("pir2 failover: get_batch", "a3cbacdb701369849bd9cbff0a781372");
    ("pir2 failover: counters", "b24cc30eab49609bc92a6e8987f2750d");
    ("pir2 double failover: role0", "950fed1dc2fdeeec9e5b327e9df36c65");
    ("pir2 double failover: role1", "d449056ee74b5afc61a1e500707253ac");
    ("pir2 double failover: get", "33b161ab1f7b5fcaf2e9c3b8379c96f6");
    ("pir2 double failover: counters", "65e417f0324c5302d2cf2fd2d0d34e76");
    ("pir2 resync: role0", "b9c76da6e8141a945c36968603b020f0");
    ("pir2 resync: role1", "08e290adcc731bab0ee976ce1905fd3e");
    ("pir2 resync: raw before seal", "548632fb0343ec4a7e9128711412f8ba");
    ("pir2 resync: raw after seal", "f27dde4fba8911086d5cf352c2515dbb");
    ("pir2 resync: batch after seal", "8e3f530122b119b0669fcdfcc942f278");
    ("pir2 resync: end visit", "7fdced18f9c37755516c0c77cfede9a3");
    ("single resync: role0", "914dd5d6be8af333b5f9f58ea080f9c9");
    ("single resync: raw before seal", "548632fb0343ec4a7e9128711412f8ba");
    ("single resync: raw after seal", "f27dde4fba8911086d5cf352c2515dbb");
    ("single resync: batch after seal", "8e3f530122b119b0669fcdfcc942f278");
    ("single resync: end visit", "7fdced18f9c37755516c0c77cfede9a3");
  ]

let test_golden_transcripts () =
  let got =
    List.concat_map
      (fun (case, entries) -> List.map (fun (label, d) -> (case ^ ": " ^ label, d)) entries)
      (golden_cases ())
  in
  if got <> golden then
    Alcotest.failf "wire transcripts differ from the recorded ones:\n%s\nthis tree gives:\n%s"
      (String.concat "\n"
         (List.filter_map
            (fun (label, d) ->
              match List.assoc_opt label golden with
              | Some g when g = d -> None
              | _ -> Some ("  " ^ label))
            got))
      (String.concat "\n"
         (List.map (fun (label, d) -> Printf.sprintf "    (%S, %S);" label d) got))

let () =
  Alcotest.run "lw_modes"
    [
      ( "oracle",
        [
          Alcotest.test_case "three modes byte-identical" `Quick test_oracle_three_modes;
          Alcotest.test_case "stale-pinned visit reads" `Quick test_oracle_stale_pinned_visit;
          Alcotest.test_case "batch agreement" `Quick test_oracle_batch;
        ] );
      ( "negotiation",
        [ Alcotest.test_case "all offer subsets" `Quick test_negotiate_all_subsets ] );
      ( "tcp",
        [
          Alcotest.test_case "single over TCP" `Quick test_single_over_tcp;
          Alcotest.test_case "single resync over TCP" `Quick test_single_resync_over_tcp;
        ] );
      ( "wire",
        [
          Alcotest.test_case "golden transcripts, every mode x verb" `Quick
            test_golden_transcripts;
        ] );
    ]
