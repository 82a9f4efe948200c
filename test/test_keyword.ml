(* Keyword-search suite: the wire-v4 two-probe verb and the cuckoo table
   it stands on.

   - model property: the Kw_store cuckoo vs a plain Hashtbl reference over arbitrary
     insert/remove interleavings (1000 cases) — find/count always agree
     with the model, nothing is ever lost or resurrected, and a refused
     insert leaves every bucket as it was.
   - cuckoo regressions: a victim whose two candidates coincide is never
     ping-ponged (the pending record takes its other candidate), an
     overfull table fails closed instead of stashing, insert probes each
     candidate bucket once, and at the perfbench get-small geometry
     every path a universe accepts sits in one of its two candidate
     buckets, over 300 seeds.
   - wire v4: Keyword_query/Keyword_answer roundtrips and CRC rejection.
   - kernels: the width-2 Server.answer_batch (the two-probe shape) agrees
     byte-for-byte with two scalar answers, and two-server shares
     reconstruct the bucket.
   - end to end: every published path resolves byte-identical via
     keyword GET and path GET, across epoch reseals, updates and
     removals; batch keyword GETs match singles.
   - chaos: canned and randomized fault schedules over the keyword verb
     can slow it down, never make it lie. *)

open Lw_pir
module Wire = Lightweb.Zltp_wire
module Faulty = Lw_net.Faulty
module Clock = Lw_obs.Clock

(* ---------------- cuckoo vs Hashtbl model (QCheck) ---------------- *)

type op = Insert of int * int | Remove of int

let pool = Array.init 24 (Printf.sprintf "site.example/page-%02d")
let pool_key i = pool.(i mod Array.length pool)

let pp_op = function
  | Insert (k, v) -> Printf.sprintf "ins(%d,v%d)" (k mod Array.length pool) v
  | Remove k -> Printf.sprintf "rem(%d)" (k mod Array.length pool)

let gen_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(
      list_size (0 -- 80)
        (frequency
           [ (3, map2 (fun k v -> Insert (k, v)) (0 -- 23) (0 -- 9)); (1, map (fun k -> Remove k) (0 -- 23)) ]))

(* Every bucket's bytes, read from a freshly sealed epoch. *)
let buckets c =
  let snap = Kw_store.publish c in
  List.init (Lw_store.Snapshot.size snap) (Lw_store.Snapshot.get snap)

let prop_cuckoo_matches_model =
  (* 16 buckets under a 24-key pool: removals of absent keys, overwrites,
     displacement chains and refused inserts all occur naturally. *)
  QCheck.Test.make ~name:"cuckoo = Hashtbl model (find/count/state, fail-closed)" ~count:1000
    gen_ops
    (fun ops ->
      let c = Kw_store.create ~domain_bits:4 ~bucket_size:64 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | Insert (k, v) ->
              let key = pool_key k and value = Printf.sprintf "v%d" v in
              let before = buckets c in
              (match Kw_store.insert c ~key ~value with
              | Ok () -> Hashtbl.replace model key value
              | Error `Full ->
                  if Hashtbl.mem model key then QCheck.Test.fail_report "overwrite refused";
                  if buckets c <> before then QCheck.Test.fail_report "refused insert left writes"
              | Error `Too_large -> QCheck.Test.fail_report "tiny record rejected")
          | Remove k ->
              let key = pool_key k in
              let removed = Kw_store.remove c key in
              if removed <> Hashtbl.mem model key then
                QCheck.Test.fail_report "remove result disagrees with model";
              Hashtbl.remove model key)
        ops;
      Array.for_all (fun key -> Kw_store.find c key = Hashtbl.find_opt model key) pool
      && Kw_store.count c = Hashtbl.length model
      && Lw_store.Snapshot.occupied (Kw_store.publish c) = Kw_store.count c
      && Kw_store.load_factor c
         = float_of_int (Kw_store.count c) /. float_of_int (Lw_store.size (Kw_store.engine c)))

(* ---------------- coincident-candidate regression ---------------- *)

(* Scan a key pool for the shapes the regression needs; the hash key is
   fixed, so the found keys are deterministic. *)
let scan_keys ~limit pred =
  let rec go i = if i >= limit then None else
      let k = Printf.sprintf "probe-%04d" i in
      if pred k then Some k else go (i + 1)
  in
  match go 0 with Some k -> k | None -> Alcotest.fail "key scan exhausted"

let test_coincident_victim_not_ping_ponged () =
  let c = Kw_store.create ~domain_bits:3 ~bucket_size:64 () in
  (* V: both candidates coincide at bucket j — the immovable victim. *)
  let v = scan_keys ~limit:4096 (fun k -> let i0, i1 = Kw_store.candidates c k in i0 = i1) in
  let j, _ = Kw_store.candidates c v in
  (* P: second candidate is j, first is some other bucket a. *)
  let p =
    scan_keys ~limit:4096 (fun k ->
        let i0, i1 = Kw_store.candidates c k in i1 = j && i0 <> j)
  in
  let a, _ = Kw_store.candidates c p in
  (* F: occupies a directly (its first candidate is a, inserted while a
     is empty), so P's displacement has to start at j; F's other
     candidate b is free. *)
  let f =
    scan_keys ~limit:4096 (fun k ->
        let i0, i1 = Kw_store.candidates c k in
        i0 = a && i1 <> a && i1 <> j && k <> p && k <> v)
  in
  let _, b = Kw_store.candidates c f in
  Alcotest.(check (result unit reject)) "insert V" (Ok ()) (Kw_store.insert c ~key:v ~value:"vv");
  Alcotest.(check (result unit reject)) "insert F" (Ok ()) (Kw_store.insert c ~key:f ~value:"vf");
  ignore (Kw_store.publish c);
  (* Both of P's candidates are occupied and the victim at j cannot move.
     The old code swapped the slot with itself until max_kicks (hundreds
     of dirtied epoch buckets), and later stashed P where no client
     probe could see it. P now continues from its other candidate a:
     F moves on to b, and P takes a — two writes. *)
  Alcotest.(check (result unit reject)) "insert P" (Ok ()) (Kw_store.insert c ~key:p ~value:"vp");
  Alcotest.(check int) "two bucket writes" 2 (Kw_store.pending_mutations c);
  let snap = Kw_store.publish c in
  let at i = Record.decode (Lw_store.Snapshot.get snap i) |> Option.map fst in
  Alcotest.(check (option string)) "victim stays at j" (Some v) (at j);
  Alcotest.(check (option string)) "pending record in its other candidate" (Some p) (at a);
  Alcotest.(check (option string)) "filler moved to its other candidate" (Some f) (at b);
  Alcotest.(check (option string)) "pending findable" (Some "vp") (Kw_store.find c p);
  Alcotest.(check int) "all three counted" 3 (Kw_store.count c)

let test_full_table_fails_closed () =
  let c = Kw_store.create ~domain_bits:3 ~bucket_size:64 () in
  let keys = List.init 12 (Printf.sprintf "drain-key-%02d") in
  (* 12 records for 8 buckets: at least 4 inserts must be refused, each
     leaving every bucket exactly as it found it *)
  let stored =
    List.filter
      (fun k ->
        let before = buckets c in
        match Kw_store.insert c ~key:k ~value:(String.uppercase_ascii k) with
        | Ok () -> true
        | Error `Full ->
            Alcotest.(check bool) ("no trace of refused " ^ k) true (buckets c = before);
            false
        | Error `Too_large -> Alcotest.fail "tiny record rejected")
      keys
  in
  Alcotest.(check bool) "some refused" true (List.length stored <= 8);
  Alcotest.(check int) "count = stored" (List.length stored) (Kw_store.count c);
  Alcotest.(check int) "every record in a bucket" (Kw_store.count c)
    (Lw_store.Snapshot.occupied (Kw_store.publish c));
  List.iter
    (fun k ->
      let found = Kw_store.find c k in
      if List.mem k stored then
        Alcotest.(check (option string)) ("stored " ^ k) (Some (String.uppercase_ascii k)) found
      else Alcotest.(check (option string)) ("refused " ^ k) None found)
    keys;
  (* a removal frees a bucket; the next insert can use it *)
  Alcotest.(check bool) "remove" true (Kw_store.remove c (List.hd stored));
  Alcotest.(check int) "count after remove" (List.length stored - 1) (Kw_store.count c)

(* Every path a universe accepts must be readable through its two
   candidate buckets alone: that is all the keyword verb probes. The
   geometry and inputs are perfbench's get-small ones (2^10 x 256 B
   data, 600 generated pages over 16 sites, universe seed
   "perfbench/<seed>/0"); seeds 11, 201, 206 and 309 used to leave a
   record in the cuckoo stash, invisible to clients. *)
let test_accepted_paths_in_candidate_buckets () =
  let geometry =
    {
      Lightweb.Universe.code_blob_size = 1024;
      data_blob_size = 256;
      fetches_per_page = 5;
      code_domain_bits = 6;
      data_domain_bits = 10;
    }
  in
  let profile =
    { Lw_sim.Corpus.name = "small-pages"; total_bytes = 0.; pages = 0.; avg_page_bytes = 100. }
  in
  for seed = 10 to 309 do
    let rng = Lw_util.Det_rng.create (Int64.of_int seed) in
    let corpus = Lw_sim.Corpus.generate ~sites:16 ~sigma:0.4 profile ~n_pages:600 rng in
    let u =
      Lightweb.Universe.create ~seed:(Printf.sprintf "perfbench/%d/0" seed) ~name:"perfbench"
        geometry
    in
    Array.iter
      (fun domain ->
        match Lightweb.Universe.claim_domain u ~publisher:"p" ~domain with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      corpus.Lw_sim.Corpus.sites;
    let accepted =
      Array.to_list corpus.Lw_sim.Corpus.pages
      |> List.filter_map (fun (pg : Lw_sim.Corpus.page) ->
             let value = Lw_json.Json.Obj [ ("body", Lw_json.Json.String pg.body) ] in
             match Lightweb.Universe.push_data u ~publisher:"p" ~path:pg.path ~value with
             | Ok () -> Some (pg.path, Lw_json.Json.to_string value)
             | Error _ -> None)
    in
    (* a refused push leaves no trace in the data index either *)
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: data paths = accepted paths" seed)
      (List.sort String.compare (List.map fst accepted))
      (Lightweb.Universe.data_paths u);
    ignore (Lightweb.Universe.publish_updates u);
    let kw = Lightweb.Universe.keyword_store u in
    let snap = Kw_store.snapshot kw in
    Alcotest.(check int) (Printf.sprintf "seed %d: stash" seed) 0 (Kw_store.stash_size kw);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: keyword entries = accepted paths" seed)
      (List.length accepted) (Kw_store.count kw);
    List.iter
      (fun (path, text) ->
        let i0, i1 = Kw_store.candidates kw path in
        let probe i = Record.decode_for_key ~key:path (Lw_store.Snapshot.get snap i) in
        let got = match probe i0 with Some v -> Some v | None -> probe i1 in
        Alcotest.(check (option string)) (Printf.sprintf "seed %d: %s" seed path) (Some text) got)
      accepted
  done

let test_insert_overwrites_in_place () =
  let c = Kw_store.create ~domain_bits:4 ~bucket_size:64 () in
  Alcotest.(check (result unit reject)) "first" (Ok ()) (Kw_store.insert c ~key:"k" ~value:"v1");
  Alcotest.(check int) "one write to place" 1 (Kw_store.pending_mutations c);
  ignore (Kw_store.publish c);
  Alcotest.(check (result unit reject)) "overwrite" (Ok ()) (Kw_store.insert c ~key:"k" ~value:"v2");
  Alcotest.(check int) "one write to overwrite" 1 (Kw_store.pending_mutations c);
  Alcotest.(check int) "still one record" 1 (Kw_store.count c);
  Alcotest.(check (option string)) "new value" (Some "v2") (Kw_store.find c "k")

(* ---------------- wire v4 ---------------- *)

let test_wire_v4_roundtrip () =
  Alcotest.(check int) "protocol version" 6 Wire.protocol_version;
  let q = Wire.Keyword_query { qid = 42; epoch = 7; dpf_key0 = "KEY-ZERO\x00\xff"; dpf_key1 = "key-one" } in
  (match Wire.decode_client (Wire.encode_client q) with
  | Ok (Wire.Keyword_query { qid; epoch; dpf_key0; dpf_key1 }) ->
      Alcotest.(check int) "qid" 42 qid;
      Alcotest.(check int) "epoch" 7 epoch;
      Alcotest.(check string) "key0" "KEY-ZERO\x00\xff" dpf_key0;
      Alcotest.(check string) "key1" "key-one" dpf_key1
  | Ok _ -> Alcotest.fail "decoded as a different message"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "request qid" (Some 42) (Wire.request_qid q);
  let a = Wire.Keyword_answer { qid = 42; epoch = 7; share0 = String.make 32 '\x5a'; share1 = "" } in
  (match Wire.decode_server (Wire.encode_server a) with
  | Ok (Wire.Keyword_answer { qid; epoch; share0; share1 }) ->
      Alcotest.(check int) "qid" 42 qid;
      Alcotest.(check int) "epoch" 7 epoch;
      Alcotest.(check string) "share0" (String.make 32 '\x5a') share0;
      Alcotest.(check string) "empty share1 survives" "" share1
  | Ok _ -> Alcotest.fail "decoded as a different message"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "reply qid" (Some 42) (Wire.reply_qid a)

let test_wire_v4_crc_rejects_corruption () =
  let enc = Wire.encode_client (Wire.Keyword_query { qid = 1; epoch = 2; dpf_key0 = "abc"; dpf_key1 = "def" }) in
  let flipped = Bytes.of_string enc in
  let off = String.length enc / 2 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x10));
  (match Wire.decode_client (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip decoded cleanly");
  (* truncation below the CRC trailer is also a structured error *)
  match Wire.decode_client (String.sub enc 0 (Wire.trailer_size - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated message decoded cleanly"

(* ---------------- answer_pair kernel ---------------- *)

(* The keyword verb's two probes are a width-2 [Server.answer_batch]:
   one two-lane kernel call, one streamed pass feeding both accumulators. *)
let answer_pair s k0 k1 =
  match Server.answer_batch s [| k0; k1 |] with
  | [| a; b |] -> (a, b)
  | _ -> Alcotest.fail "batch of two returned wrong arity"

let test_answer_pair_matches_scalar () =
  (* 33-byte buckets: the width-2 kernel's word loop leaves a byte tail *)
  let st = Lw_store.create ~domain_bits:5 ~bucket_size:33 () in
  let w = Lw_store.writer st in
  Lw_store.Writer.fill_random w (Lw_util.Det_rng.of_string_seed "pair-kernel");
  let snap = Lw_store.Writer.seal w in
  let s = Server.of_snapshot snap in
  let drbg = Lw_crypto.Drbg.create ~seed:"pair-keys" in
  let k0a, k1a = Lw_dpf.Dpf.gen ~domain_bits:5 ~alpha:3 drbg in
  let k0b, k1b = Lw_dpf.Dpf.gen ~domain_bits:5 ~alpha:17 drbg in
  let pa, pb = answer_pair s k0a k0b in
  Alcotest.(check string) "lane0 = scalar" (Server.answer s k0a) pa;
  Alcotest.(check string) "lane1 = scalar" (Server.answer s k0b) pb;
  (* two-server reconstruction: this server's shares XOR the other key
     half's shares back to the exact bucket bytes *)
  let qa, qb = answer_pair s k1a k1b in
  let xor x y = String.init (String.length x) (fun i -> Char.chr (Char.code x.[i] lxor Char.code y.[i])) in
  Alcotest.(check string) "reconstruct alpha=3" (Lw_store.Snapshot.get snap 3) (xor pa qa);
  Alcotest.(check string) "reconstruct alpha=17" (Lw_store.Snapshot.get snap 17) (xor pb qb);
  (* coincident probes (the same alpha twice) are a legal pair *)
  let ca, cb = answer_pair s k0a k0a in
  Alcotest.(check string) "coincident pair lanes agree" ca cb

(* ---------------- end to end across epochs ---------------- *)

let small_geometry =
  { Lightweb.Universe.default_geometry with
    Lightweb.Universe.data_blob_size = 256;
    (* 2^8 buckets: small enough to stay fast, big enough that ten test
       paths don't hash-collide in the data store's single keymap *)
    data_domain_bits = 8;
  }

let body p gen = Lw_json.Json.String (Printf.sprintf "content of %s, generation %d" p gen)

(* Publish [n] pages, skipping candidate names that hash-collide in the
   data store's single keymap (the collision-renaming story of §5.1 —
   real publishers pick another name, and so do we). Returns the universe
   and the paths that made it in, plus a [push] helper that finds a fresh
   non-colliding name for epoch-2 additions. *)
let make_universe ?(n = 10) name =
  let u = Lightweb.Universe.create ~name small_geometry in
  (match Lightweb.Universe.claim_domain u ~publisher:"pub" ~domain:"kw.example" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let published = ref [] and count = ref 0 and i = ref 0 in
  while !count < n && !i < 1000 do
    let p = Printf.sprintf "kw.example/page-%03d" !i in
    incr i;
    match Lightweb.Universe.push_data u ~publisher:"pub" ~path:p ~value:(body p 1) with
    | Ok () ->
        published := p :: !published;
        incr count
    | Error _ -> () (* collision: pick another name *)
  done;
  if !count < n then Alcotest.fail "could not publish enough pages";
  ignore (Lightweb.Universe.publish_updates u);
  (u, Array.of_list (List.rev !published))

let push_fresh u ~value_gen =
  let rec go i =
    if i >= 2000 then Alcotest.fail "no fresh non-colliding name"
    else
      let p = Printf.sprintf "kw.example/fresh-%03d" i in
      match Lightweb.Universe.push_data u ~publisher:"pub" ~path:p ~value:(body p value_gen) with
      | Ok () -> p
      | Error _ -> go (i + 1)
  in
  go 0

let connect_pair (s0, s1) =
  match
    Lightweb.Zltp_client.connect
      [ Lightweb.Zltp_server.endpoint s0; Lightweb.Zltp_server.endpoint s1 ]
  with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let check_oracle ~what data_client kw_client p =
  let via label r =
    match r with
    | Ok v -> v
    | Error e -> Alcotest.fail (Printf.sprintf "%s %s GET %s: %s" what label p e)
  in
  let by_path = via "path" (Lightweb.Zltp_client.get data_client p) in
  let by_keyword = via "keyword" (Lightweb.Zltp_client.keyword_get kw_client p) in
  Alcotest.(check (option string)) (Printf.sprintf "%s: %s" what p) by_path by_keyword;
  by_keyword

let test_keyword_oracle_across_epochs () =
  let u, paths = make_universe "kw-e2e" in
  let epoch1_clients = (connect_pair (Lightweb.Universe.data_servers u),
                        connect_pair (Lightweb.Universe.keyword_servers u)) in
  let data_client, kw_client = epoch1_clients in
  Fun.protect ~finally:(fun () ->
      Lightweb.Zltp_client.close data_client;
      Lightweb.Zltp_client.close kw_client)
  @@ fun () ->
  (* epoch 1: every published path byte-identical through both verbs *)
  Array.iter
    (fun p ->
      match check_oracle ~what:"epoch1" data_client kw_client p with
      | Some v -> Alcotest.(check string) "value" (Lw_json.Json.to_string (body p 1)) v
      | None -> Alcotest.fail (p ^ " unpublished"))
    paths;
  (* unpublished key: both verbs agree on None *)
  ignore (check_oracle ~what:"epoch1" data_client kw_client "kw.example/never-published");
  (* epoch 2: overwrite one page, add one, remove one, reseal *)
  (match Lightweb.Universe.push_data u ~publisher:"pub" ~path:paths.(3) ~value:(body paths.(3) 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let fresh = push_fresh u ~value_gen:2 in
  (match Lightweb.Universe.remove_data u ~publisher:"pub" ~path:paths.(5) with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "remove found nothing"
  | Error e -> Alcotest.fail e);
  ignore (Lightweb.Universe.publish_updates u);
  Alcotest.(check int) "keyword store resealed" 2 (Lightweb.Universe.keyword_epoch u);
  (* the epoch-1 clients keep reading epoch 1 — stale but CONSISTENT is
     the contract while the old epoch is retained, and both verbs must
     agree on the stale view too *)
  (match check_oracle ~what:"stale" data_client kw_client paths.(3) with
  | Some v -> Alcotest.(check string) "stale value" (Lw_json.Json.to_string (body paths.(3) 1)) v
  | None -> Alcotest.fail "stale page lost");
  (* fresh sessions learn epoch 2 at the handshake and see every change,
     byte-identical on every key through both verbs *)
  let data2 = connect_pair (Lightweb.Universe.data_servers u) in
  let kw2 = connect_pair (Lightweb.Universe.keyword_servers u) in
  Fun.protect ~finally:(fun () ->
      Lightweb.Zltp_client.close data2;
      Lightweb.Zltp_client.close kw2)
  @@ fun () ->
  (match check_oracle ~what:"epoch2" data2 kw2 paths.(3) with
  | Some v -> Alcotest.(check string) "updated value" (Lw_json.Json.to_string (body paths.(3) 2)) v
  | None -> Alcotest.fail "updated page lost");
  (match check_oracle ~what:"epoch2" data2 kw2 fresh with
  | Some _ -> ()
  | None -> Alcotest.fail "new page lost");
  Alcotest.(check (option string)) "removed page gone" None
    (match Lightweb.Zltp_client.keyword_get kw2 paths.(5) with
    | Ok v -> v
    | Error e -> Alcotest.fail e);
  Array.iteri
    (fun i p -> if i <> 5 then ignore (check_oracle ~what:"epoch2" data2 kw2 p))
    paths

let test_keyword_batch_matches_singles () =
  let u, paths = make_universe "kw-batch" in
  let kw_client = connect_pair (Lightweb.Universe.keyword_servers u) in
  Fun.protect ~finally:(fun () -> Lightweb.Zltp_client.close kw_client)
  @@ fun () ->
  let keys = [ paths.(1); paths.(4); "kw.example/never-published"; paths.(4); paths.(9) ] in
  let singles =
    List.map
      (fun k ->
        match Lightweb.Zltp_client.keyword_get kw_client k with
        | Ok v -> v
        | Error e -> Alcotest.fail e)
      keys
  in
  match Lightweb.Zltp_client.keyword_get_batch kw_client keys with
  | Ok batched -> Alcotest.(check (list (option string))) "batch = singles" singles batched
  | Error e -> Alcotest.fail e

(* ---------------- chaos over the keyword verb ---------------- *)

(* Loopback ordinals (per direction, 0-based): send 0 = Health probe,
   1 = Hello, 2.. = queries; recv 0 = Health_reply, 1 = Welcome,
   2.. = answers. *)

let quick_policy =
  { Lightweb.Zltp_client.attempts = 4; base_backoff_s = 0.01; max_backoff_s = 0.1; deadline_s = 60.0 }

let chaos_universe = lazy (make_universe "kw-chaos")

let connect_faulty ~sched =
  let u, _ = Lazy.force chaos_universe in
  let clock = Clock.virtual_ () in
  let counters = Faulty.fresh_counters () in
  let s0, s1 = Lightweb.Universe.keyword_servers u in
  let dials = Array.make 2 0 in
  let mk_replica role =
    Lightweb.Zltp_client.replica
      ~name:(Printf.sprintf "kw-r%d" role)
      (fun () ->
        let d = dials.(role) in
        dials.(role) <- d + 1;
        let ep = Lightweb.Zltp_server.endpoint (if role = 0 then s0 else s1) in
        let f, _ = Faulty.wrap ~clock ~counters (sched ~role ~dial:d) ep in
        Ok f)
  in
  Lightweb.Zltp_client.connect_replicated ~policy:quick_policy ~clock
    ~rng:(Lw_crypto.Drbg.create ~seed:"kw-chaos-client")
    [ [ mk_replica 0 ]; [ mk_replica 1 ] ]

let chaos_ops client =
  (* each op must come back with the exact published bytes: a fault may
     cost retries, never correctness (Ok None on a published key would be
     a silent lie, so it fails too) *)
  let _, paths = Lazy.force chaos_universe in
  List.iter
    (fun i ->
      let p = paths.(i) in
      match Lightweb.Zltp_client.keyword_get client p with
      | Ok (Some v) -> Alcotest.(check string) p (Lw_json.Json.to_string (body p 1)) v
      | Ok None -> Alcotest.failf "%s: keyword GET silently lost the record" p
      | Error e -> Alcotest.failf "%s: %s" p e)
    [ 0; 3; 7; 9 ]

let canned_chaos : (string * (role:int -> dial:int -> Faulty.schedule)) list =
  let at r d plan = fun ~role ~dial -> if role = r && dial = d then plan else Faulty.none in
  [
    ("clean", fun ~role:_ ~dial:_ -> Faulty.none);
    ("drop first keyword answer", at 0 0 (Faulty.of_plan ~recv:[ (2, Faulty.Drop) ] ()));
    ("drop a keyword query", at 1 0 (Faulty.of_plan ~send:[ (3, Faulty.Drop) ] ()));
    ("corrupt a keyword answer", at 0 0 (Faulty.of_plan ~recv:[ (3, Faulty.Corrupt 9) ] ()));
    ("duplicate a keyword answer", at 1 0 (Faulty.of_plan ~recv:[ (2, Faulty.Duplicate) ] ()));
    ("truncate a keyword answer", at 0 0 (Faulty.of_plan ~recv:[ (2, Faulty.Truncate 7) ] ()));
    ( "connection dies mid-session",
      at 0 0 (Faulty.of_plan ~recv:[ (3, Faulty.Close_now) ] ()) );
  ]

let test_keyword_chaos_canned () =
  List.iter
    (fun (name, sched) ->
      match connect_faulty ~sched with
      | Error e -> Alcotest.failf "scenario %S: connect failed: %s" name e
      | Ok client ->
          Fun.protect ~finally:(fun () -> Lightweb.Zltp_client.close client) @@ fun () ->
          chaos_ops client)
    canned_chaos

let prop_keyword_chaos_randomized =
  QCheck.Test.make ~name:"randomized keyword chaos: correct bytes or clean error" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let sched ~role ~dial =
        Faulty.bernoulli ~seed:(Printf.sprintf "kw-chaos-%d-%d-%d" seed role dial) ~rate:0.06
      in
      let _, paths = Lazy.force chaos_universe in
      match connect_faulty ~sched with
      | Error _ -> true (* a clean structured connect failure is acceptable *)
      | Ok client ->
          Fun.protect ~finally:(fun () -> Lightweb.Zltp_client.close client) @@ fun () ->
          List.for_all
            (fun i ->
              let p = paths.(i) in
              match Lightweb.Zltp_client.keyword_get client p with
              | Ok (Some v) -> String.equal v (Lw_json.Json.to_string (body p 1))
              | Ok None -> false (* published key: a None is wrong, not degraded *)
              | Error _ -> true (* clean structured failure is acceptable under chaos *))
            [ 0; 2; 4; 6; 8 ])

(* ---------------- runner ---------------- *)

let () =
  Alcotest.run "keyword"
    [
      ( "cuckoo",
        [
          QCheck_alcotest.to_alcotest prop_cuckoo_matches_model;
          Alcotest.test_case "coincident victim not ping-ponged" `Quick
            test_coincident_victim_not_ping_ponged;
          Alcotest.test_case "full table fails closed" `Quick test_full_table_fails_closed;
          Alcotest.test_case "accepted paths in candidate buckets" `Slow
            test_accepted_paths_in_candidate_buckets;
          Alcotest.test_case "overwrite writes once" `Quick test_insert_overwrites_in_place;
        ] );
      ( "wire-v4",
        [
          Alcotest.test_case "keyword roundtrips" `Quick test_wire_v4_roundtrip;
          Alcotest.test_case "crc rejects corruption" `Quick test_wire_v4_crc_rejects_corruption;
        ] );
      ( "kernel",
        [ Alcotest.test_case "answer_pair = scalar answers" `Quick test_answer_pair_matches_scalar ] );
      ( "end-to-end",
        [
          Alcotest.test_case "oracle across epochs" `Quick test_keyword_oracle_across_epochs;
          Alcotest.test_case "batch = singles" `Quick test_keyword_batch_matches_singles;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "canned schedules" `Quick test_keyword_chaos_canned;
          QCheck_alcotest.to_alcotest prop_keyword_chaos_randomized;
        ] );
    ]
