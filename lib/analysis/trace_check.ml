(* The dynamic half of the analysis pass: drive the two ZLTP backends
   with pairs of distinct secret keys and assert that the observable
   access traces have identical shape. This turns the obliviousness
   spot-checks scattered through test_oram.ml into a reusable checker
   any test (or future PR) can call with its own keys.

   "Shape" means what an adversary watching memory can count: trace
   length and, for the enclave, that every entry is a valid leaf of the
   same tree. The concrete leaves/buckets are expected to differ — they
   are (pseudo)random — so equality of the values themselves is exactly
   what we must NOT require.

   [check_retry] extends the same discipline to the network: a retried
   private-GET must look like a brand-new query on the wire (fresh DPF
   keys, fresh correlation id, identical frame shape). *)

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* Enclave ORAM                                                        *)
(* ------------------------------------------------------------------ *)

(* One enclave per probe key, identically populated, so each trace is
   the trace of a fresh deployment serving only that key's workload. *)
let enclave_trace ~capacity ~value_size ~fill ~gets key =
  let e = Lw_oram.Enclave.create ~seed:"trace-check" ~capacity ~value_size () in
  for i = 0 to fill - 1 do
    match Lw_oram.Enclave.put e ~key:(Printf.sprintf "page-%d" i) ~value:"v" with
    | Ok () -> ()
    | Error _ -> invalid_arg "Trace_check: fill exceeds enclave capacity"
  done;
  Lw_oram.Enclave.clear_trace e;
  for _ = 1 to gets do
    ignore (Lw_oram.Enclave.get e key)
  done;
  (Lw_oram.Enclave.observed_trace e, Lw_oram.Enclave.accesses_per_get e)

let check_enclave ?(capacity = 32) ?(value_size = 64) ?(fill = 10) ?(gets = 6)
    ?(keys = [ "page-1"; "page-7"; "no-such-key.example" ]) () =
  if List.length keys < 2 then err "check_enclave: need at least 2 distinct keys"
  else begin
    let traces = List.map (enclave_trace ~capacity ~value_size ~fill ~gets) keys in
    let lengths = List.map (fun (t, _) -> List.length t) traces in
    match lengths with
    | [] -> err "check_enclave: no traces"
    | first :: rest ->
        if List.exists (fun l -> l <> first) rest then
          err "enclave trace lengths differ across keys: [%s]"
            (String.concat "; " (List.map string_of_int lengths))
        else if first <> gets then
          err "enclave trace has %d accesses for %d gets: op count leaks" first gets
        else begin
          (* every logged entry must be a leaf of the same tree: a trace
             that wandered outside the leaf range would be distinguishable *)
          let leaf_bound =
            match traces with (_, per_get) :: _ -> 1 lsl (per_get - 1) | [] -> 0
          in
          let bad =
            List.concat_map
              (fun ((t, _), key) ->
                List.filter_map
                  (fun leaf ->
                    if leaf < 0 || leaf >= leaf_bound then Some (key, leaf) else None)
                  t)
              (List.combine traces keys)
          in
          match bad with
          | [] -> Ok ()
          | (key, leaf) :: _ -> err "enclave trace for %S left the leaf range: %d" key leaf
        end
  end

(* ------------------------------------------------------------------ *)
(* The PIR linear scan                                                 *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec each f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      each f rest

(* What the second epoch of [scan_snapshot] writes to bucket [i] of a
   rewritten block, by [i mod 5], with the length of its non-zero
   prefix: empty, short, odd-length, the whole bucket, and a quarter
   bucket followed by a quarter of zeros. Each fits the bucket. *)
let record ~bucket_size i =
  let body n = String.init n (fun j -> Char.chr (1 + (((i * 7) + j) mod 255))) in
  match i mod 5 with
  | 0 -> (None, 0)
  | 1 -> (Some (body (min 5 bucket_size)), min 5 bucket_size)
  | 2 ->
      let n = (bucket_size / 2) lor 1 in
      (Some (body n), n)
  | 3 -> (Some (body bucket_size), bucket_size)
  | _ ->
      let n = bucket_size / 4 in
      (Some (body n ^ String.make n '\x00'), n)

(* The store every scan check serves: a full random first epoch on
   8-bucket CoW blocks, then a second that rewrites every other block
   bucket by bucket with [record]s, shorter over longer or cleared. The
   snapshot mixes shared and copied blocks, a stale extent from the
   first epoch would show, and range views span blocks, fill one or sit
   inside one. Also returns each bucket's extent as its contents give
   it: the whole bucket below [Lw_store.whole_scan_below], otherwise the
   non-zero prefix rounded up to 64 B. *)
let scan_snapshot ~domain_bits ~bucket_size =
  let st = Lw_store.create ~block_bytes:(8 * bucket_size) ~domain_bits ~bucket_size () in
  let w1 = Lw_store.writer st in
  Lw_store.Writer.fill_random w1 (Lw_util.Det_rng.of_string_seed "trace-check-db");
  ignore (Lw_store.Writer.seal w1);
  let w2 = Lw_store.writer st in
  let extents =
    Array.init (1 lsl domain_bits) (fun i ->
        let nz =
          if i / Lw_store.block_buckets st mod 2 = 1 then bucket_size
          else
            match record ~bucket_size i with
            | None, nz ->
                Lw_store.Writer.clear w2 i;
                nz
            | Some v, nz ->
                Lw_store.Writer.set w2 i v;
                nz
        in
        if bucket_size < Lw_store.whole_scan_below then bucket_size
        else min bucket_size ((nz + 63) land lnot 63))
  in
  (Lw_store.Writer.seal w2, extents)

(* A bucket is read only up to its extent, so what a memory observer of
   a scan sees is the bucket walk and the bytes read at each bucket. Both
   must be public: the in-order walk with the snapshot's extent map, the
   same for every secret and both parties. At each width (one key through
   [Server.answer], more through [answer_batch]), two batches of distinct
   secrets, holding buckets 0 and [size - 1] between them, run for both
   parties (1) on the whole snapshot, (2) on every [Snapshot.sub] view of
   each [shard_bits], with the [Distributed.split] sub-keys, and (3)
   through [answer_partitioned] on one worker, the production driver run
   inline in ascending partition order, at each partition count. Every
   trace must be the walk of its own range with that range's extents;
   the views' shares must XOR to the whole share, the partitioned shares
   equal the serial ones, and the two parties' whole shares XOR to the
   queried buckets, so the check cannot pass on a scan that reads
   nothing. The extent map must be the one the buckets' contents give,
   with only zero bytes past each extent. *)
let check_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(widths = [ 1; 2; 5; 9 ])
    ?(shard_bits = [ 1; 3; 4 ]) ?(partitions = [ 2; 4; 8 ]) () =
  let size = 1 lsl domain_bits in
  let snap, extents = scan_snapshot ~domain_bits ~bucket_size in
  let traced f = Lw_store.Snapshot.traced snap f in
  let walk base n = List.init n (fun j -> (base + j, Lw_store.Snapshot.extent snap (base + j))) in
  let answer server keys =
    if Array.length keys = 1 then [| Lw_pir.Server.answer server keys.(0) |]
    else Lw_pir.Server.answer_batch server keys
  in
  let server = Lw_pir.Server.of_snapshot snap in
  (* one party's keys: their whole-snapshot shares, or the first trace or
     share that is not what it must be *)
  let run keys =
    let whole, tr = traced (fun () -> answer server keys) in
    let* () =
      if tr = walk 0 size then Ok () else err "whole-snapshot trace is not the walk"
    in
    let view sb =
      let rem = domain_bits - sb in
      let subs = Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:sb) keys in
      let accs = Array.map (fun _ -> Bytes.make bucket_size '\x00') keys in
      let* () =
        each
          (fun v ->
            let part = Lw_store.Snapshot.sub snap ~base:(v lsl rem) ~domain_bits:rem in
            let shares, tr =
              traced (fun () ->
                  answer (Lw_pir.Server.of_snapshot part) (Array.map (fun s -> s.(v)) subs))
            in
            Array.iteri
              (fun q sh ->
                Lw_util.Xorbuf.xor_string_into ~src:sh ~src_pos:0 ~dst:accs.(q) ~dst_pos:0
                  ~len:bucket_size)
              shares;
            if tr = walk (v lsl rem) (1 lsl rem) then Ok ()
            else err "view %d of %d: trace is not its own range's walk" v (1 lsl sb))
          (List.init (1 lsl sb) Fun.id)
      in
      if Array.for_all2 (fun a s -> String.equal (Bytes.to_string a) s) accs whole then Ok ()
      else err "views of shard_bits=%d XOR to another share" sb
    in
    let partitioned p =
      let shares, tr =
        traced (fun () -> Lw_pir.Server.answer_partitioned ~partitions:p server keys)
      in
      if tr <> walk 0 size then err "partitions=%d: trace is not the walk" p
      else if not (Array.for_all2 String.equal shares whole) then
        err "partitions=%d: shares differ from the serial ones" p
      else Ok ()
    in
    let* () = each view shard_bits in
    let* () = each partitioned partitions in
    Ok whole
  in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-dpf" in
  let probe (w, first) =
    let alphas = List.init w (fun q -> (first + (q * 13)) mod size) in
    let pairs = List.map (fun alpha -> Lw_dpf.Dpf.gen ~domain_bits ~alpha rng) alphas in
    let result =
      (* handing secret-derived keys to a scan that is then checked is
         this checker's entire purpose *)
      (* lw-lint: allow taint lines=2 *)
      let* s0 = run (Array.of_list (List.map fst pairs)) in
      let* s1 = run (Array.of_list (List.map snd pairs)) in
      let want = Array.of_list (List.map (Lw_store.Snapshot.get snap) alphas) in
      if Array.for_all2 String.equal (Array.map2 Lw_util.Xorbuf.xor s0 s1) want then Ok ()
      else err "the parties' shares do not reconstruct the buckets"
    in
    Result.map_error
      (Printf.sprintf "scan of %d x %d B, width %d, batch from %d: %s" size bucket_size w first)
      result
  in
  let zero_tail i =
    let e = extents.(i) in
    Lw_util.Xorbuf.is_zero (String.sub (Lw_store.Snapshot.get snap i) e (bucket_size - e))
  in
  if Array.to_list extents <> List.init size (Lw_store.Snapshot.extent snap) then
    err "scan store's extent map is not the one its buckets' contents give"
  else if not (List.for_all zero_tail (List.init size Fun.id)) then
    err "scan store holds a non-zero byte past an extent"
  else each probe (List.concat_map (fun w -> [ (w, 0); (w, size - 1) ]) widths)

(* ------------------------------------------------------------------ *)
(* Single-server PIR scan (Single mode)                                *)
(* ------------------------------------------------------------------ *)

(* The LWE answer path promises the same observable shape as the
   two-server XOR scan: one pass over every bucket in index order,
   whatever column the masked query selects. Over [check_scan]'s
   two-epoch store, issue queries for several distinct secret indices
   and assert that every scan trace is exactly the public full walk —
   and that each query still recovers its bucket's bytes, so the checker
   can't pass vacuously on a broken scan. *)
let check_spir_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(indices = [ 5; 42 ]) () =
  let size = 1 lsl domain_bits in
  let snap, _ = scan_snapshot ~domain_bits ~bucket_size in
  match Lw_pir.Spir.decode_hint (Lw_pir.Spir.hint_of_snapshot Lw_pir.Spir.default_params snap) with
  | Error e -> err "spir hint round trip failed: %s" e
  | Ok hint ->
      let rng = Lw_crypto.Drbg.create ~seed:"trace-check-spir-query" in
      let expected_trace = List.init size Fun.id in
      let rec check_indices = function
        | [] -> Ok ()
        | index :: rest -> (
            let expected_page = Lw_store.Snapshot.get snap index in
            let secret, query = Lw_pir.Spir.Client.query hint ~domain_bits ~index rng in
            (* feeding a secret-derived query into the server path (and
               branching on what comes back) is this checker's entire
               purpose, like every probe above *)
            (* lw-lint: allow taint lines=13 *)
            let answered, trace =
              Lw_store.Snapshot.traced snap (fun () -> Lw_pir.Spir.answer snap query)
            in
            match answered with
            | Error e -> err "spir answer failed for index=%d: %s" index e
            | Ok answer ->
                if List.map fst trace <> expected_trace then
                  err
                    "SPIR scan trace for index=%d is not the full in-order walk: \
                     the masked query leaks"
                    index
                else (
                  match Lw_pir.Spir.Client.recover hint secret answer with
                  | Error e -> err "spir recovery failed for index=%d: %s" index e
                  | Ok page ->
                      if not (String.equal page expected_page) then
                        err "spir recovered wrong bytes for index=%d" index
                      else check_indices rest))
      in
      check_indices indices

(* ------------------------------------------------------------------ *)
(* Privacy-preserving retry (ZLTP client)                              *)
(* ------------------------------------------------------------------ *)

(* The self-healing client promises that a retried private-GET is
   indistinguishable on the wire from a brand-new query: fresh DPF keys,
   fresh correlation id, identical frame shape. Check it dynamically:
   run the same GET against a replica set where the preferred replica of
   one role swallows its first answer (forcing a timeout, failover and
   retry), record every frame the client sends, and compare against a
   fault-free control run. *)

let tap log (ep : Lw_net.Endpoint.t) =
  {
    Lw_net.Endpoint.send =
      (fun m ->
        log := `Send m :: !log;
        ep.Lw_net.Endpoint.send m);
    recv =
      (fun () ->
        let m = ep.Lw_net.Endpoint.recv () in
        log := `Recv m :: !log;
        m);
    close = ep.Lw_net.Endpoint.close;
  }

(* Every query frame the client sent, as (qid, DPF keys, frame length):
   [Pir_query] for [get_raw_index], [Pir_batch] for [get_batch] and
   [keyword_get_batch], [Keyword_query] for [keyword_get]. *)
let sent_pir_queries log =
  List.rev !log
  |> List.filter_map (function
       | `Recv _ -> None
       | `Send frame -> (
           match Lightweb.Zltp_wire.decode_client frame with
           | Ok (Lightweb.Zltp_wire.Pir_query { qid; epoch = _; dpf_key }) ->
               Some (qid, [ dpf_key ], String.length frame)
           | Ok (Lightweb.Zltp_wire.Pir_batch { qid; epoch = _; dpf_keys }) ->
               Some (qid, dpf_keys, String.length frame)
           | Ok (Lightweb.Zltp_wire.Keyword_query { qid; epoch = _; dpf_key0; dpf_key1 }) ->
               Some (qid, [ dpf_key0; dpf_key1 ], String.length frame)
           | _ -> None))

(* The keys [check_retry]'s keyed verbs fetch, each published with a
   value of its own; results render as one string to compare. *)
let retry_keys = [ "retry/a"; "retry/b"; "retry/c" ]
let retry_value key = "v:" ^ key
let show_values vs = String.concat ";" (List.map (function Some v -> v | None -> "<none>") vs)

(* [verb] picks the client operation and so the query frame under test:
   [`Get_raw_index] ([Pir_query], at bucket [alpha]), [`Get_batch]
   ([Pir_batch]), [`Keyword_get] ([Keyword_query]) or [`Keyword_get_batch]
   ([Pir_batch] of candidate pairs), the last three over [retry_keys]. *)
let check_retry ?(verb = `Get_raw_index) ?(domain_bits = 6) ?(bucket_size = 32) ?(alpha = 13) ()
    =
  let open Lightweb in
  (* every replica serves its own one-epoch store of the same bytes; the
     second component looks a key up in the plaintext store *)
  let make_store () =
    match verb with
    | `Get_raw_index | `Get_batch ->
        let st = Lw_store.create ~domain_bits ~bucket_size () in
        let w = Lw_store.writer st in
        Lw_store.Writer.fill_random w (Lw_util.Det_rng.of_string_seed "trace-check-retry-db");
        if verb = `Get_batch then
          List.iter
            (fun key ->
              Lw_store.Writer.set w (Lw_store.index_of_key st key)
                (Lw_pir.Record.encode ~bucket_size ~key ~value:(retry_value key)))
            retry_keys;
        ignore (Lw_store.Writer.seal w);
        ( st,
          fun key ->
            Lw_pir.Record.decode_for_key ~key
              (Lw_store.Snapshot.get (Lw_store.current st) (Lw_store.index_of_key st key)) )
    | `Keyword_get | `Keyword_get_batch ->
        let kw = Lw_pir.Kw_store.create ~domain_bits ~bucket_size () in
        List.iter
          (fun key -> ignore (Lw_pir.Kw_store.insert kw ~key ~value:(retry_value key)))
          retry_keys;
        ignore (Lw_pir.Kw_store.publish kw);
        (Lw_pir.Kw_store.engine kw, Lw_pir.Kw_store.find kw)
  in
  let fetched = match verb with `Keyword_get -> [ List.hd retry_keys ] | _ -> retry_keys in
  let expected =
    let st, lookup = make_store () in
    match verb with
    | `Get_raw_index -> Lw_store.Snapshot.get (Lw_store.current st) alpha
    | `Get_batch | `Keyword_get | `Keyword_get_batch -> show_values (List.map lookup fetched)
  in
  let op client =
    match verb with
    | `Get_raw_index -> Zltp_client.get_raw_index client alpha
    | `Get_batch -> Result.map show_values (Zltp_client.get_batch client fetched)
    | `Keyword_get ->
        Result.map (fun v -> show_values [ v ]) (Zltp_client.keyword_get client (List.hd fetched))
    | `Keyword_get_batch -> Result.map show_values (Zltp_client.keyword_get_batch client fetched)
  in
  let run ~faulted =
    let log0 = ref [] and log1 = ref [] in
    let clock = Lw_obs.Clock.virtual_ () in
    let replica_of ~log ~schedule name =
      Zltp_client.replica ~name (fun () ->
          let st, _ = make_store () in
          let srv =
            Zltp_server.create ~server_id:name ~hash_key:(Lw_store.hash_key st)
              ~blob_size:bucket_size (Zltp_backend.versioned st)
          in
          let ep, _ = Lw_net.Faulty.wrap ~clock schedule (Zltp_server.endpoint srv) in
          Ok (tap log ep))
    in
    (* on the faulted run, replica a0 swallows its first Answer (recv
       ordinal 2: after Health_reply and Welcome), so the client times
       out, fails over to a1 and retries *)
    let a0_schedule =
      if faulted then Lw_net.Faulty.of_plan ~recv:[ (2, Lw_net.Faulty.Drop) ] ()
      else Lw_net.Faulty.none
    in
    let roles =
      [
        [
          replica_of ~log:log0 ~schedule:a0_schedule "a0";
          replica_of ~log:log0 ~schedule:Lw_net.Faulty.none "a1";
        ];
        [ replica_of ~log:log1 ~schedule:Lw_net.Faulty.none "b0" ];
      ]
    in
    let rng =
      Lw_crypto.Drbg.create ~seed:(if faulted then "retry-faulted" else "retry-control")
    in
    match Zltp_client.connect_replicated ~rng ~clock roles with
    | Error e -> Error (Printf.sprintf "connect failed: %s" e)
    | Ok client ->
        let result = op client in
        let stats = (Zltp_client.retries client, Zltp_client.failovers client) in
        Zltp_client.close client;
        Ok (result, sent_pir_queries log0, sent_pir_queries log1, stats)
  in
  (* a key lost to a bucket collision would leave [None] to compare *)
  if
    verb <> `Get_raw_index
    && expected <> show_values (List.map (fun k -> Some (retry_value k)) fetched)
  then err "retry fixture does not hold every key: the value check would be vacuous"
  else
  match (run ~faulted:false, run ~faulted:true) with
  | Error e, _ -> err "control run: %s" e
  | _, Error e -> err "faulted run: %s" e
  | Ok (res_c, q0_c, q1_c, (retries_c, _)), Ok (res_f, q0_f, q1_f, (retries_f, failovers_f))
    -> (
      let check_value label = function
        | Error e -> err "%s run failed: %s" label e
        | Ok v when not (String.equal v expected) -> err "%s run returned wrong bytes" label
        | Ok _ -> Ok ()
      in
      match (check_value "control" res_c, check_value "faulted" res_f) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok (), Ok () ->
          if retries_c <> 0 then err "control run retried %d times" retries_c
          else if retries_f <> 1 then err "faulted run retried %d times, wanted 1" retries_f
          else if failovers_f <> 1 then
            err "faulted run failed over %d times, wanted 1" failovers_f
          else if List.length q0_c <> 1 || List.length q1_c <> 1 then
            err "control run sent %d+%d queries, wanted 1+1" (List.length q0_c)
              (List.length q1_c)
          else if List.length q0_f <> 2 || List.length q1_f <> 2 then
            err "faulted run sent %d+%d queries, wanted 2+2 (retry on both roles)"
              (List.length q0_f) (List.length q1_f)
          else begin
            let all = q0_c @ q1_c @ q0_f @ q1_f in
            let sizes = List.sort_uniq compare (List.map (fun (_, _, n) -> n) all) in
            let keys = List.concat_map (fun (_, k, _) -> k) all in
            let distinct_keys = List.sort_uniq compare keys in
            let qids run = List.sort_uniq compare (List.map (fun (q, _, _) -> q) run) in
            if List.length sizes <> 1 then
              err "retried query frames differ in size: a retry is distinguishable"
            else if List.length distinct_keys <> List.length keys then
              err "a DPF key was reused across attempts: retries must use fresh keys"
            else if List.length (qids q0_f) <> 2 then
              err "faulted run reused a correlation id across attempts"
            else Ok ()
          end)

let retry_verbs = [ `Get_raw_index; `Get_batch; `Keyword_get; `Keyword_get_batch ]

(* Every check at its defaults, the scan at buckets read whole and at
   buckets read up to their extents, stopping at the first failure. *)
let check_all () =
  each
    (fun check -> check ())
    ([
       (fun () -> check_enclave ());
       (fun () -> check_scan ());
       (fun () -> check_scan ~bucket_size:600 ());
       (fun () -> check_spir_scan ());
     ]
    @ List.map (fun verb () -> check_retry ~verb ()) retry_verbs)
