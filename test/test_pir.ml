open Lw_pir
open Lw_repro

let rng () = Lw_crypto.Drbg.create ~seed:"pir-tests"
let det = Lw_util.Det_rng.of_string_seed

(* A sealed one-epoch snapshot whose buckets [fill] writes. *)
let sealed ~domain_bits ~bucket_size fill =
  let st = Lw_store.create ~domain_bits ~bucket_size () in
  let w = Lw_store.writer st in
  fill w;
  Lw_store.Writer.seal w

let random_server ~domain_bits ~bucket_size seed =
  Server.of_snapshot
    (sealed ~domain_bits ~bucket_size (fun w -> Lw_store.Writer.fill_random w (det seed)))

(* ---------------- Snapshot ---------------- *)

let test_snapshot_basic () =
  let st = Lw_store.create ~domain_bits:4 ~bucket_size:32 () in
  let snap = Lw_store.current st in
  Alcotest.(check int) "size" 16 (Lw_store.Snapshot.size snap);
  Alcotest.(check int) "total" 512 (Lw_store.Snapshot.total_bytes snap);
  Alcotest.(check bool) "fresh empty" true (Lw_store.Snapshot.is_empty snap 3);
  let w = Lw_store.writer st in
  Lw_store.Writer.set w 3 "hello";
  let snap = Lw_store.Writer.seal w in
  Alcotest.(check bool) "now occupied" false (Lw_store.Snapshot.is_empty snap 3);
  Alcotest.(check string) "padded" ("hello" ^ String.make 27 '\x00') (Lw_store.Snapshot.get snap 3);
  Alcotest.(check int) "occupied" 1 (Lw_store.Snapshot.occupied snap);
  let w = Lw_store.writer st in
  Lw_store.Writer.clear w 3;
  Alcotest.(check bool) "cleared" true (Lw_store.Snapshot.is_empty (Lw_store.Writer.seal w) 3)

let test_snapshot_validation () =
  let st = Lw_store.create ~domain_bits:3 ~bucket_size:8 () in
  let snap = Lw_store.current st in
  let oob = Invalid_argument "Lw_store.Snapshot: index out of range" in
  Alcotest.check_raises "oob" oob (fun () -> ignore (Lw_store.Snapshot.get snap 8));
  Alcotest.check_raises "neg" oob (fun () -> ignore (Lw_store.Snapshot.get snap (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Lw_store.Writer.set: data exceeds bucket")
    (fun () -> Lw_store.Writer.set (Lw_store.writer st) 0 (String.make 9 'x'));
  Alcotest.check_raises "bad domain" (Invalid_argument "Lw_store.create: domain_bits out of range")
    (fun () -> ignore (Lw_store.create ~domain_bits:0 ~bucket_size:8 ()))

let test_snapshot_xor_into () =
  let snap =
    sealed ~domain_bits:2 ~bucket_size:4 (fun w ->
        Lw_store.Writer.set w 1 "\x0f\x0f\x0f\x0f";
        Lw_store.Writer.set w 2 "\xf0\x00\x00\x00")
  in
  let acc = Bytes.make 4 '\x00' in
  Lw_store.Snapshot.xor_bucket_into_masked snap 1 ~mask:0xff ~dst:acc;
  Lw_store.Snapshot.xor_bucket_into_masked snap 2 ~mask:0xff ~dst:acc;
  Lw_store.Snapshot.xor_bucket_into_masked snap 3 ~mask:0x00 ~dst:acc;
  Alcotest.(check string) "xor" "\xff\x0f\x0f\x0f" (Bytes.to_string acc)

(* ---------------- Record ---------------- *)

let test_record_roundtrip () =
  let bucket = Record.encode ~bucket_size:64 ~key:"nytimes.com/a" ~value:"{\"x\":1}" in
  Alcotest.(check int) "size" 64 (String.length bucket);
  (match Record.decode bucket with
  | Some (k, v) ->
      Alcotest.(check string) "key" "nytimes.com/a" k;
      Alcotest.(check string) "value" "{\"x\":1}" v
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check (option string)) "for key" (Some "{\"x\":1}")
    (Record.decode_for_key ~key:"nytimes.com/a" bucket);
  Alcotest.(check (option string)) "wrong key" None
    (Record.decode_for_key ~key:"cnn.com/a" bucket)

let test_record_edges () =
  Alcotest.(check (option (pair string string))) "empty bucket" None
    (Record.decode (String.make 32 '\x00'));
  (* exact fit *)
  let key = "k" and bucket_size = 32 in
  let v = String.make (Record.max_value_len ~bucket_size ~key) 'v' in
  let b = Record.encode ~bucket_size ~key ~value:v in
  Alcotest.(check (option string)) "exact fit" (Some v) (Record.decode_for_key ~key b);
  Alcotest.check_raises "overflow" (Invalid_argument "Record.encode: record exceeds bucket")
    (fun () -> ignore (Record.encode ~bucket_size ~key ~value:(v ^ "x")));
  Alcotest.check_raises "empty key" (Invalid_argument "Record.encode: empty key") (fun () ->
      ignore (Record.encode ~bucket_size:32 ~key:"" ~value:"v"));
  (* empty value is fine *)
  let b = Record.encode ~bucket_size:16 ~key:"k" ~value:"" in
  Alcotest.(check (option string)) "empty value" (Some "") (Record.decode_for_key ~key:"k" b)

let test_record_corrupt () =
  let b = Record.encode ~bucket_size:32 ~key:"kk" ~value:"vv" in
  (* corrupt the length field to exceed the bucket *)
  let bad = Bytes.of_string b in
  Bytes.set_int32_be bad 3 1000l;
  Alcotest.(check (option (pair string string))) "oversized vlen" None
    (Record.decode (Bytes.to_string bad))

(* ---------------- Keymap ---------------- *)

let test_keymap_deterministic () =
  let km = Keymap.create ~hash_key:(String.make 16 'k') ~domain_bits:16 in
  let i = Keymap.index_of_key km "example.com/page" in
  Alcotest.(check int) "stable" i (Keymap.index_of_key km "example.com/page");
  Alcotest.(check bool) "in domain" true (i >= 0 && i < 65536);
  let km2 = Keymap.derive km ~salt:1 in
  Alcotest.(check bool) "derived differs" true
    (Keymap.index_of_key km2 "example.com/page" <> i
    || Keymap.index_of_key km2 "other" <> Keymap.index_of_key km "other")

let test_keymap_collision_formulas () =
  (* the paper's parameters: 2^20 keys in a 2^22 domain -> 1/4 *)
  Alcotest.(check (float 1e-9)) "paper point" 0.25
    (Keymap.new_key_collision_probability ~n_keys:(1 lsl 20) ~domain_bits:22);
  Alcotest.(check (float 1e-9)) "empty" 0.
    (Keymap.new_key_collision_probability ~n_keys:0 ~domain_bits:22);
  let e = Keymap.expected_collisions ~n_keys:1000 ~domain_bits:20 in
  Alcotest.(check (float 1e-6)) "expected pairs" (1000. *. 999. /. 2097152.) e;
  let p = Keymap.any_collision_probability ~n_keys:1000 ~domain_bits:20 in
  Alcotest.(check bool) "birthday in (0,1)" true (p > 0. && p < 1.)

let test_keymap_monte_carlo_matches_analytic () =
  let km = Keymap.create ~hash_key:(String.make 16 'm') ~domain_bits:12 in
  (* fill to 1/4 capacity like the paper's shard *)
  let n = 1024 in
  let measured = Keymap.monte_carlo_new_key_collision km ~n_keys:n ~trials:4000 (det "mc") in
  (* slightly below n/2^d because random inserts collide among themselves *)
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f near 0.25" measured)
    true
    (measured > 0.15 && measured < 0.30)

(* ---------------- Store ---------------- *)

let test_store_insert_find () =
  let s = Store.create ~domain_bits:12 ~bucket_size:128 () in
  Alcotest.(check bool) "insert" true (Store.insert s ~key:"a.com/1" ~value:"v1" = Ok ());
  Alcotest.(check bool) "insert2" true (Store.insert s ~key:"a.com/2" ~value:"v2" = Ok ());
  Alcotest.(check (option string)) "find" (Some "v1") (Store.find s "a.com/1");
  Alcotest.(check (option string)) "missing" None (Store.find s "a.com/404");
  Alcotest.(check int) "count" 2 (Store.count s);
  (* overwrite in place *)
  Alcotest.(check bool) "overwrite" true (Store.insert s ~key:"a.com/1" ~value:"v1b" = Ok ());
  Alcotest.(check (option string)) "updated" (Some "v1b") (Store.find s "a.com/1");
  Alcotest.(check int) "count stable" 2 (Store.count s);
  Alcotest.(check bool) "remove" true (Store.remove s "a.com/1");
  Alcotest.(check bool) "remove again" false (Store.remove s "a.com/1");
  Alcotest.(check int) "count after remove" 1 (Store.count s)

let test_store_too_large () =
  let s = Store.create ~domain_bits:4 ~bucket_size:16 () in
  Alcotest.(check bool) "too large" true
    (Store.insert s ~key:"k" ~value:(String.make 64 'v') = Error Store.Too_large)

let test_store_collision_detected () =
  (* tiny domain forces collisions quickly *)
  let s = Store.create ~domain_bits:2 ~bucket_size:128 () in
  let outcomes =
    List.map
      (fun i -> Store.insert s ~key:(Printf.sprintf "key-%d" i) ~value:"v")
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let collisions =
    List.filter (function Error (Store.Collision _) -> true | _ -> false) outcomes
  in
  Alcotest.(check bool) "some collisions in 8 inserts over 4 slots" true
    (List.length collisions > 0);
  (* colliding keys were not stored *)
  Alcotest.(check bool) "count consistent" true (Store.count s <= 4)

(* ---------------- Cuckoo ---------------- *)

let test_cuckoo_insert_find () =
  let c = Kw_store.create ~domain_bits:8 ~bucket_size:128 () in
  let n = 150 in
  (* ~59% load: displacement will be exercised *)
  let accepted =
    List.init n (fun i ->
        match
          Kw_store.insert c ~key:(Printf.sprintf "site-%d.com/p" i) ~value:(Printf.sprintf "v%d" i)
        with
        | Ok () -> true
        | Error `Full -> false
        | Error `Too_large -> Alcotest.fail "unexpected too-large")
  in
  let stored = List.length (List.filter Fun.id accepted) in
  Alcotest.(check int) "count" stored (Kw_store.count c);
  Alcotest.(check bool) "few rejected" true (n - stored <= 2);
  List.iteri
    (fun i ok ->
      Alcotest.(check (option string))
        (Printf.sprintf "find %d" i)
        (if ok then Some (Printf.sprintf "v%d" i) else None)
        (Kw_store.find c (Printf.sprintf "site-%d.com/p" i)))
    accepted

let test_cuckoo_overwrite_remove () =
  let c = Kw_store.create ~domain_bits:6 ~bucket_size:64 () in
  ignore (Kw_store.insert c ~key:"k" ~value:"v1");
  ignore (Kw_store.insert c ~key:"k" ~value:"v2");
  Alcotest.(check (option string)) "overwrite" (Some "v2") (Kw_store.find c "k");
  Alcotest.(check int) "count 1" 1 (Kw_store.count c);
  Alcotest.(check bool) "remove" true (Kw_store.remove c "k");
  Alcotest.(check (option string)) "gone" None (Kw_store.find c "k");
  Alcotest.(check int) "count 0" 0 (Kw_store.count c)

let test_cuckoo_beats_single_hash_at_load () =
  (* at ~60% load (past 2-choice cuckoo's 50% threshold), single-hash
     placement rejects many keys; cuckoo refuses only a stray one *)
  let domain_bits = 8 and n = 150 in
  let s = Store.create ~domain_bits ~bucket_size:64 () in
  let rejected = ref 0 in
  for i = 0 to n - 1 do
    match Store.insert s ~key:(Printf.sprintf "k%d" i) ~value:"v" with
    | Ok () -> ()
    | Error _ -> incr rejected
  done;
  let c = Kw_store.create ~domain_bits ~bucket_size:64 () in
  for i = 0 to n - 1 do
    ignore (Kw_store.insert c ~key:(Printf.sprintf "k%d" i) ~value:"v")
  done;
  Alcotest.(check bool) "single-hash rejects some" true (!rejected > 0);
  Alcotest.(check bool)
    (Printf.sprintf "cuckoo keeps all but %d (single hash: %d)" (n - Kw_store.count c) !rejected)
    true
    (n - Kw_store.count c <= 2 && 10 * (n - Kw_store.count c) < !rejected)

let test_cuckoo_no_loss_under_pressure () =
  (* overfill vs capacity: an insert the table cannot place is refused,
     and no refusal ever dislodges a record stored before it *)
  let c = Kw_store.create ~max_kicks:16 ~domain_bits:4 ~bucket_size:64 () in
  let accepted =
    List.init 14 (fun i ->
        Result.is_ok (Kw_store.insert c ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i)))
  in
  List.iteri
    (fun i ok ->
      Alcotest.(check (option string))
        (Printf.sprintf "k%d %s" i (if ok then "survives" else "absent"))
        (if ok then Some (string_of_int i) else None)
        (Kw_store.find c (Printf.sprintf "k%d" i)))
    accepted;
  Alcotest.(check int) "every stored record in a bucket"
    (Lw_store.Snapshot.occupied (Kw_store.publish c))
    (Kw_store.count c)

(* ---------------- end-to-end PIR ---------------- *)

let populated_store ?(domain_bits = 8) ?(bucket_size = 256) n =
  let s = Store.create ~domain_bits ~bucket_size () in
  let stored = ref [] in
  let i = ref 0 in
  while List.length !stored < n do
    let key = Printf.sprintf "pub-%d.example/%d" (!i mod 7) !i in
    (match Store.insert s ~key ~value:(Printf.sprintf "{\"page\":%d}" !i) with
    | Ok () -> stored := key :: !stored
    | Error _ -> ());
    incr i
  done;
  (s, !stored)

let test_pir_end_to_end () =
  let s, keys = populated_store 40 in
  let server0 = Server.of_snapshot (Store.snapshot s) and server1 = Server.of_snapshot (Store.snapshot s) in
  List.iter
    (fun key ->
      let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
      let resp0 = Server.answer server0 q.Client.key0 in
      let resp1 = Server.answer server1 q.Client.key1 in
      match Client.fetch q ~resp0 ~resp1 ~key with
      | Some v -> Alcotest.(check (option string)) key (Some v) (Store.find s key)
      | None -> Alcotest.fail (Printf.sprintf "PIR lookup failed for %s" key))
    keys

let test_pir_absent_key () =
  let s, _ = populated_store 10 in
  let server = Server.of_snapshot (Store.snapshot s) in
  let key = "missing.example/xyz" in
  match Store.find s key with
  | Some _ -> () (* extremely unlikely collision; nothing to assert *)
  | None ->
      let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
      let resp0 = Server.answer server q.Client.key0 in
      let resp1 = Server.answer server q.Client.key1 in
      Alcotest.(check (option string)) "absent" None (Client.fetch q ~resp0 ~resp1 ~key)

let test_pir_batch_matches_single () =
  let s, keys = populated_store 20 in
  let server = Server.of_snapshot (Store.snapshot s) in
  let queries =
    Array.of_list
      (List.map (fun key -> Client.query_key ~keymap:(Store.keymap s) ~key (rng ())) keys)
  in
  let batch = Server.answer_batch server (Array.map (fun q -> q.Client.key0) queries) in
  Array.iteri
    (fun i q ->
      Alcotest.(check string)
        (Printf.sprintf "batch[%d]" i)
        (Server.answer server q.Client.key0)
        batch.(i))
    queries

let test_pir_server_response_uniform_size () =
  let s, keys = populated_store 15 in
  let server = Server.of_snapshot (Store.snapshot s) in
  let sizes =
    List.map
      (fun key ->
        let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
        String.length (Server.answer server q.Client.key0))
      keys
  in
  List.iter (fun n -> Alcotest.(check int) "uniform" 256 n) sizes

(* The wire entry point: [Zltp_server.handle_frame] deserialises each
   key and checks its domain before any scan. A [Pir_query] or a
   [Pir_batch] with garbage key bytes or a key over the wrong domain is a
   bad request; a valid key's share is [Server.answer]'s. *)
let test_pir_serialized_entry_point () =
  let open Lightweb in
  let s, keys = populated_store 5 in
  let snap = Store.snapshot s in
  let server = Server.of_snapshot snap in
  let epoch = Lw_store.Snapshot.epoch snap in
  let zs = Zltp_server.create ~blob_size:256 (Zltp_backend.versioned (Store.engine s)) in
  let c = Zltp_server.conn zs in
  (match
     Zltp_server.handle c
       (Zltp_wire.Hello { version = Zltp_wire.protocol_version; modes = [ Zltp_mode.Pir2 ] })
   with
  | Some (Zltp_wire.Welcome _) -> ()
  | _ -> Alcotest.fail "hello failed");
  let send msg =
    match Zltp_server.handle_frame c (Zltp_wire.encode_client msg) with
    | None -> Alcotest.fail "no reply"
    | Some frame -> (
        match Zltp_wire.decode_server frame with
        | Ok reply -> reply
        | Error e -> Alcotest.fail ("undecodable reply: " ^ e))
  in
  let q = Client.query_key ~keymap:(Store.keymap s) ~key:(List.hd keys) (rng ()) in
  let valid = Lw_dpf.Dpf.serialize q.Client.key0 in
  (match send (Zltp_wire.Pir_query { qid = 1; epoch; dpf_key = valid }) with
  | Zltp_wire.Answer { share; _ } ->
      Alcotest.(check string) "same as direct" (Server.answer server q.Client.key0) share
  | _ -> Alcotest.fail "valid query not answered");
  (match send (Zltp_wire.Pir_batch { qid = 2; epoch; dpf_keys = [ valid; valid ] }) with
  | Zltp_wire.Batch_answer { shares; _ } ->
      Alcotest.(check (list string)) "batch same as direct"
        (Array.to_list (Server.answer_batch server [| q.Client.key0; q.Client.key0 |]))
        shares
  | _ -> Alcotest.fail "valid batch not answered");
  (* a key over the wrong domain *)
  let wrong =
    Lw_dpf.Dpf.serialize (Client.query_index ~domain_bits:5 ~index:0 (rng ())).Client.key0
  in
  List.iter
    (fun (label, bad) ->
      let rejected msg =
        match send msg with
        | Zltp_wire.Err { code; _ } -> code = Zltp_wire.err_bad_request
        | _ -> false
      in
      Alcotest.(check bool) ("query rejects " ^ label) true
        (rejected (Zltp_wire.Pir_query { qid = 3; epoch; dpf_key = bad }));
      Alcotest.(check bool) ("batch rejects " ^ label) true
        (rejected (Zltp_wire.Pir_batch { qid = 4; epoch; dpf_keys = [ valid; bad ] })))
    [ ("garbage", "garbage"); ("wrong domain", wrong) ]

let test_pir_cuckoo_end_to_end () =
  (* probing both candidate locations retrieves the record wherever
     displacement put it *)
  let c = Kw_store.create ~domain_bits:8 ~bucket_size:128 () in
  let n = 140 in
  for i = 0 to n - 1 do
    ignore (Kw_store.insert c ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i))
  done;
  let server = Server.of_snapshot (Kw_store.publish c) in
  let ok = ref 0 in
  for i = 0 to n - 1 do
    let key = Printf.sprintf "k%d" i in
    let i0, i1 = Kw_store.candidates c key in
    let probe idx =
      let q = Client.query_index ~domain_bits:8 ~index:idx (rng ()) in
      let resp0 = Server.answer server q.Client.key0 in
      let resp1 = Server.answer server q.Client.key1 in
      Client.fetch q ~resp0 ~resp1 ~key
    in
    match (probe i0, probe i1) with
    | Some v, _ | _, Some v ->
        Alcotest.(check string) key (Printf.sprintf "v%d" i) v;
        incr ok
    | None, None ->
        if Kw_store.find c key <> None then Alcotest.fail (Printf.sprintf "lost %s" key)
  done;
  Alcotest.(check int) "every stored key retrievable via 2 probes" (Kw_store.count c) !ok

(* ---------------- privacy ---------------- *)

let test_pir_single_server_view_independent () =
  (* one server's response share must not reveal the index: responses to
     two different queried keys are both uniform-looking; here we check the
     stronger structural fact that the response depends only on the DPF
     share, which is generated independently of alpha given one share.
     We verify shares for different alphas have indistinguishable weight. *)
  let s, _ = populated_store ~domain_bits:10 5 in
  let server = Server.of_snapshot (Store.snapshot s) in
  ignore server;
  let weight alpha =
    let q = Client.query_index ~domain_bits:10 ~index:alpha (rng ()) in
    List.length (Lw_dpf.Dpf.selected_indices q.Client.key0)
  in
  let w1 = weight 0 and w2 = weight 1023 in
  Alcotest.(check bool) "balanced shares" true (abs (w1 - 512) < 150 && abs (w2 - 512) < 150)

let test_baselines () =
  let snap = sealed ~domain_bits:6 ~bucket_size:32 (fun w -> Lw_store.Writer.set w 17 "payload") in
  let bucket = Lw_store.Snapshot.get snap 17 in
  Alcotest.(check string) "trivial" bucket (Baselines.trivial_fetch snap 17);
  Alcotest.(check string) "direct" bucket (Baselines.direct_fetch snap 17);
  let open Baselines.Cost in
  let pir = of_scheme Two_server_pir ~domain_bits:22 ~bucket_size:4096 in
  let triv = of_scheme Trivial_pir ~domain_bits:22 ~bucket_size:4096 in
  let direct = of_scheme Direct ~domain_bits:22 ~bucket_size:4096 in
  Alcotest.(check bool) "pir download tiny vs trivial" true
    (pir.download_bytes < triv.download_bytes / 1000);
  Alcotest.(check bool) "pir hides index" false pir.leaks_index;
  Alcotest.(check bool) "direct leaks" true direct.leaks_index;
  Alcotest.(check int) "pir download = 2 buckets" 8192 pir.download_bytes

(* ---------------- properties ---------------- *)

let prop_pir_roundtrip =
  QCheck.Test.make ~name:"pir retrieves any stored record" ~count:30
    QCheck.(pair (string_of_size Gen.(1 -- 30)) (string_of_size Gen.(0 -- 100)))
    (fun (key, value) ->
      let s = Store.create ~domain_bits:8 ~bucket_size:256 () in
      match Store.insert s ~key ~value with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
          let server = Server.of_snapshot (Store.snapshot s) in
          let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
          let resp0 = Server.answer server q.Client.key0 in
          let resp1 = Server.answer server q.Client.key1 in
          Client.fetch q ~resp0 ~resp1 ~key = Some value)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 40)) (string_of_size Gen.(0 -- 120)))
    (fun (key, value) ->
      let bucket_size = Record.overhead + String.length key + String.length value + 13 in
      Record.decode (Record.encode ~bucket_size ~key ~value) = Some (key, value))

let prop_cuckoo_find_after_inserts =
  QCheck.Test.make ~name:"cuckoo: all inserted keys findable" ~count:20
    QCheck.(list_of_size Gen.(1 -- 60) (string_of_size Gen.(1 -- 12)))
    (fun keys ->
      let keys = List.sort_uniq compare (List.filter (fun k -> k <> "") keys) in
      let c = Kw_store.create ~domain_bits:8 ~bucket_size:64 () in
      let stored =
        List.filter
          (fun k -> Result.is_ok (Kw_store.insert c ~key:k ~value:(String.uppercase_ascii k)))
          keys
      in
      List.for_all (fun k -> Kw_store.find c k = Some (String.uppercase_ascii k)) stored)

(* Kernel-equivalence properties: the fused single-pass kernel behind
   [Server.answer] and the batch kernel behind
   [Server.answer_batch] must agree byte-for-byte with the two-pass
   reference ([eval_bits] + [scan]) on arbitrary geometry — domain sizes
   that don't divide the scan block, bucket sizes that aren't vector
   multiples, batch widths 1-17 (across the 8-lane plane boundary). *)

let scan_geometry =
  QCheck.make
    ~print:(fun (d, b, alphas) ->
      Printf.sprintf "domain_bits=%d bucket=%d alphas=[%s]" d b
        (String.concat ";" (List.map string_of_int alphas)))
    QCheck.Gen.(
      int_range 1 9 >>= fun d ->
      int_range 1 160 >>= fun b ->
      list_size (int_range 1 17) (int_range 0 ((1 lsl d) - 1)) >>= fun alphas ->
      return (d, b, alphas))

let reference_answer server k = Server.scan server (Server.eval_bits server k)

let prop_fused_matches_reference =
  QCheck.Test.make ~name:"fused answer = two-pass reference" ~count:60 scan_geometry
    (fun (domain_bits, bucket_size, alphas) ->
      let server = random_server ~domain_bits ~bucket_size "fused-prop" in
      let drbg = rng () in
      List.for_all
        (fun alpha ->
          let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
          List.for_all
            (fun k -> String.equal (Server.answer server k) (reference_answer server k))
            [ k0; k1 ])
        alphas)

let prop_batch_matches_naive =
  QCheck.Test.make ~name:"batched answers = naive per-query loop" ~count:40 scan_geometry
    (fun (domain_bits, bucket_size, alphas) ->
      let server = random_server ~domain_bits ~bucket_size "batch-prop" in
      let drbg = rng () in
      let keys =
        Array.of_list
          (List.mapi
             (fun i alpha ->
               let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
               if i land 1 = 0 then k0 else k1)
             alphas)
      in
      let batched = Server.answer_batch server keys in
      Array.length batched = Array.length keys
      && Array.for_all2
           (fun share k -> String.equal share (reference_answer server k))
           batched keys)

(* The same equivalence over a pinned [Lw_store] snapshot whose CoW
   blocks hold one to four buckets, so every fused scan block straddles
   several of them and the scan kernel runs on split block runs.
   The served epoch rewrites every third bucket of the one before, so
   it mixes blocks shared with the older epoch and its own copies. *)
let prop_snapshot_batch_matches_naive =
  QCheck.Test.make ~name:"snapshot batch = naive per-query loop" ~count:40 scan_geometry
    (fun (domain_bits, bucket_size, alphas) ->
      let size = 1 lsl domain_bits in
      let block_bytes = bucket_size * (1 + (List.length alphas mod 4)) in
      let store = Lw_store.create ~block_bytes ~domain_bits ~bucket_size () in
      let fill ~every =
        let r = det (Printf.sprintf "snapshot-batch-prop/%d" every) in
        let w = Lw_store.writer store in
        for i = 0 to size - 1 do
          if i mod every = 0 then Lw_store.Writer.set w i (Lw_util.Det_rng.bytes r bucket_size)
        done;
        ignore (Lw_store.Writer.seal w)
      in
      fill ~every:1;
      fill ~every:3;
      let snap = Lw_store.pin_latest store in
      let server = Server.of_snapshot snap in
      let drbg = rng () in
      let keys =
        Array.of_list
          (List.mapi
             (fun i alpha ->
               let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
               if i land 1 = 0 then k0 else k1)
             alphas)
      in
      let batched = Server.answer_batch server keys in
      let ok =
        Array.length batched = Array.length keys
        && Array.for_all2
             (fun share k -> String.equal share (reference_answer server k))
             batched keys
      in
      Lw_store.unpin store snap;
      ok)

(* The partitioned driver must be bit-identical to the serial kernels
   whatever the worker count: counts below, at and above the machine's
   core count, worker counts exceeding the partition count, and
   geometries the work-size cutoff would keep serial in [answer ~domains]
   ([answer_partitioned] applies no cutoff). With one worker the same
   driver runs its partitions inline, the deterministic schedule, so it
   rides the same property. Domain >= 2 bits: below that there is
   nothing to partition. *)

let parallel_geometry =
  QCheck.make
    ~print:(fun (d, b, nd, alphas) ->
      Printf.sprintf "domain_bits=%d bucket=%d domains=%d alphas=[%s]" d b nd
        (String.concat ";" (List.map string_of_int alphas)))
    QCheck.Gen.(
      int_range 2 9 >>= fun d ->
      int_range 1 80 >>= fun b ->
      oneofl [ 1; 2; 4; 8 ] >>= fun nd ->
      list_size (int_range 1 17) (int_range 0 ((1 lsl d) - 1)) >>= fun alphas ->
      return (d, b, nd, alphas))

let prop_domains_matches_serial =
  QCheck.Test.make ~name:"partitioned (domains/inline) = serial answer" ~count:40
    parallel_geometry
    (fun (domain_bits, bucket_size, nd, alphas) ->
      let server = random_server ~domain_bits ~bucket_size "domains-prop" in
      let drbg = rng () in
      List.for_all
        (fun alpha ->
          let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
          List.for_all
            (fun k ->
              let serial = Server.answer server k in
              String.equal serial
                (Server.answer_partitioned ~partitions:nd ~domains:nd server [| k |]).(0)
              && String.equal serial (Server.answer_partitioned ~partitions:nd server [| k |]).(0)
              && String.equal serial (Server.answer ~domains:nd server k))
            [ k0; k1 ])
        alphas)

let prop_batch_domains_matches_batch =
  QCheck.Test.make ~name:"partitioned batch (domains) = answer_batch" ~count:30
    parallel_geometry
    (fun (domain_bits, bucket_size, nd, alphas) ->
      let server = random_server ~domain_bits ~bucket_size "batch-domains-prop" in
      let drbg = rng () in
      let keys =
        Array.of_list
          (List.mapi
             (fun i alpha ->
               let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
               if i land 1 = 0 then k0 else k1)
             alphas)
      in
      let serial = Server.answer_batch server keys in
      let parallel = Server.answer_partitioned ~partitions:nd ~domains:nd server keys in
      Array.length parallel = Array.length serial
      && Array.for_all2 String.equal parallel serial)

(* [pir.server.scan_bytes] counts the database bytes a call streams from
   memory: one traversal per batch, whatever its width (the later lane
   groups re-read cache-resident blocks), serial or partitioned. *)
let test_batch_scan_bytes () =
  let server = random_server ~domain_bits:6 ~bucket_size:40 "scan-bytes" in
  let scan_bytes = Lw_obs.Metrics.counter "pir.server.scan_bytes" in
  let drbg = rng () in
  List.iter
    (fun width ->
      let keys =
        Array.init width (fun i -> fst (Lw_dpf.Dpf.gen ~domain_bits:6 ~alpha:(7 * i) drbg))
      in
      let delta label f =
        let before = Lw_obs.Metrics.counter_value scan_bytes in
        ignore (f ());
        Alcotest.(check int)
          (Printf.sprintf "%s width %d" label width)
          (Server.total_bytes server)
          (Lw_obs.Metrics.counter_value scan_bytes - before)
      in
      delta "serial" (fun () -> Server.answer_batch server keys);
      delta "domains" (fun () -> Server.answer_partitioned ~partitions:2 ~domains:2 server keys))
    [ 5; 9 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pir_roundtrip;
      prop_record_roundtrip;
      prop_cuckoo_find_after_inserts;
      prop_fused_matches_reference;
      prop_batch_matches_naive;
      prop_snapshot_batch_matches_naive;
      prop_domains_matches_serial;
      prop_batch_domains_matches_batch;
    ]

let () =
  Alcotest.run "lw_pir"
    [
      ( "snapshot",
        [
          Alcotest.test_case "basic" `Quick test_snapshot_basic;
          Alcotest.test_case "validation" `Quick test_snapshot_validation;
          Alcotest.test_case "xor into" `Quick test_snapshot_xor_into;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "edges" `Quick test_record_edges;
          Alcotest.test_case "corrupt" `Quick test_record_corrupt;
        ] );
      ( "keymap",
        [
          Alcotest.test_case "deterministic" `Quick test_keymap_deterministic;
          Alcotest.test_case "collision formulas" `Quick test_keymap_collision_formulas;
          Alcotest.test_case "monte carlo" `Quick test_keymap_monte_carlo_matches_analytic;
        ] );
      ( "store",
        [
          Alcotest.test_case "insert/find" `Quick test_store_insert_find;
          Alcotest.test_case "too large" `Quick test_store_too_large;
          Alcotest.test_case "collision detected" `Quick test_store_collision_detected;
        ] );
      ( "cuckoo",
        [
          Alcotest.test_case "insert/find" `Quick test_cuckoo_insert_find;
          Alcotest.test_case "overwrite/remove" `Quick test_cuckoo_overwrite_remove;
          Alcotest.test_case "beats single hash" `Quick test_cuckoo_beats_single_hash_at_load;
          Alcotest.test_case "no loss under pressure" `Quick test_cuckoo_no_loss_under_pressure;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "store round trip" `Quick test_pir_end_to_end;
          Alcotest.test_case "absent key" `Quick test_pir_absent_key;
          Alcotest.test_case "batch matches single" `Quick test_pir_batch_matches_single;
          Alcotest.test_case "batch scan bytes" `Quick test_batch_scan_bytes;
          Alcotest.test_case "uniform response size" `Quick test_pir_server_response_uniform_size;
          Alcotest.test_case "serialized entry point" `Quick test_pir_serialized_entry_point;
          Alcotest.test_case "cuckoo end-to-end" `Quick test_pir_cuckoo_end_to_end;
        ] );
      ( "privacy-baselines",
        [
          Alcotest.test_case "share balance" `Quick test_pir_single_server_view_independent;
          Alcotest.test_case "baselines" `Quick test_baselines;
        ] );
      ("properties", props);
    ]
