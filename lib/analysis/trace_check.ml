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
(* Linear scan over a one-epoch store (PIR mode)                       *)
(* ------------------------------------------------------------------ *)

(* Every scan check below serves a sealed snapshot of a store filled
   with the same fixed pseudorandom bytes. *)
let random_snapshot ~domain_bits ~bucket_size =
  let st = Lw_store.create ~domain_bits ~bucket_size () in
  let w = Lw_store.writer st in
  Lw_store.Writer.fill_random w (Lw_util.Det_rng.of_string_seed "trace-check-db");
  Lw_store.Writer.seal w

(* Run [f] with the snapshot's store tracing, returning its result and
   the buckets it touched, in order. *)
let traced snap f =
  Lw_store.Snapshot.set_tracing snap true;
  let r = f () in
  let t = Lw_store.Snapshot.access_trace snap in
  Lw_store.Snapshot.set_tracing snap false;
  (r, t)

(* For each secret index, generate the DPF share pair and run both
   servers' scans with tracing on. The masked scan must touch buckets
   [0..size) in order for every key and both parties. *)
let scan_traces ~domain_bits ~bucket_size alpha =
  let snap = random_snapshot ~domain_bits ~bucket_size in
  let server = Lw_pir.Server.of_snapshot snap in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-dpf" in
  let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha rng in
  List.map (fun k -> snd (traced snap (fun () -> Lw_pir.Server.answer server k))) [ k0; k1 ]

let check_bucket_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(alphas = [ 3; 47 ]) () =
  if List.length alphas < 2 then err "check_bucket_scan: need at least 2 distinct keys"
  else begin
    let expected = List.init (1 lsl domain_bits) Fun.id in
    let failures =
      List.concat_map
        (fun alpha ->
          List.concat_map
            (fun trace -> if trace = expected then [] else [ alpha ])
            (scan_traces ~domain_bits ~bucket_size alpha))
        alphas
    in
    (* lw-lint: allow taint *)
    match failures with
    | [] -> Ok ()
    | alpha :: _ ->
        err "bucket scan trace for alpha=%d is not the full in-order walk" alpha
  end

(* ------------------------------------------------------------------ *)
(* Batch scan (PIR mode)                                               *)
(* ------------------------------------------------------------------ *)

(* The batched kernel streams the database in blocks and makes one pass
   over each block whatever the width, so the observable per-bucket
   trace is the same in-order walk a single answer makes. Drive
   [answer_batch] with several distinct batches of secrets (both key
   shares of each) and assert (1) the traces are identical across
   batches and parties, and (2) the trace is exactly buckets [0..size)
   in order — full coverage, one visit each, so no bucket's visit count
   or position correlates with any query's target. *)
let batch_scan_traces ~domain_bits ~bucket_size alphas =
  let snap = random_snapshot ~domain_bits ~bucket_size in
  let server = Lw_pir.Server.of_snapshot snap in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-dpf" in
  let pairs = List.map (fun alpha -> Lw_dpf.Dpf.gen ~domain_bits ~alpha rng) alphas in
  List.map
    (fun party ->
      let keys =
        Array.of_list (List.map (fun (k0, k1) -> if party = 0 then k0 else k1) pairs)
      in
      snd (traced snap (fun () -> Lw_pir.Server.answer_batch server keys)))
    [ 0; 1 ]

let check_batch_scan ?(domain_bits = 5) ?(bucket_size = 24)
    ?(batches = [ [ 3; 9; 17; 28; 5 ]; [ 1; 2; 30; 31; 16 ] ]) () =
  let widths = List.sort_uniq compare (List.map List.length batches) in
  match widths with
  | [] -> err "check_batch_scan: need at least one batch"
  | _ :: _ :: _ ->
      (* the width is public: probing obliviousness compares batches
         that differ only in their secrets *)
      err "check_batch_scan: batches must share one width"
  | [ width ] when width < 2 || List.length batches < 2 ->
      err "check_batch_scan: need >= 2 batches of >= 2 queries"
  | [ _ ] -> (
      let traces =
        List.concat_map (batch_scan_traces ~domain_bits ~bucket_size) batches
      in
      match traces with
      | [] -> err "check_batch_scan: no traces"
      | first :: rest ->
          if List.exists (fun t -> t <> first) rest then
            err "batch scan trace depends on the secret indices"
          else begin
            let rec first_gap i = function
              | [] -> if i = 1 lsl domain_bits then None else Some i
              | b :: tl -> if b <> i then Some i else first_gap (i + 1) tl
            in
            match first_gap 0 first with
            | None -> Ok ()
            | Some i -> err "batch scan trace is not the in-order walk at position %d" i
          end)

(* ------------------------------------------------------------------ *)
(* Domain-partitioned scan (PIR mode)                                  *)
(* ------------------------------------------------------------------ *)

(* The parallel scan splits the bucket range into 2^levels aligned
   partitions and rebases the keys per partition. Each partition's lane
   driver still walks its sub-range front to back, so on the serial
   schedule ([answer_partitioned] with one worker, ascending partition
   order) the observable trace must be exactly the full in-order walk —
   the same shape the single-threaded scan leaves — for a lone key and
   for a batch alike. Anything else (a skipped bucket, a partition whose
   walk depends on a secret index) would hand a memory adversary a
   distinguisher; with more workers the same driver runs the identical
   per-partition code, only interleaved by the scheduler, so per-worker
   traces inherit this shape. The shares must also stay bit-identical to
   the serial scan. Each probe is one party's share of [alphas], run as
   one batch. *)
let partitioned_scan_traces ~domain_bits ~bucket_size ~partitions alphas =
  let snap = random_snapshot ~domain_bits ~bucket_size in
  let server = Lw_pir.Server.of_snapshot snap in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-dpf" in
  let pairs =
    Array.of_list (List.map (fun alpha -> Lw_dpf.Dpf.gen ~domain_bits ~alpha rng) alphas)
  in
  List.map
    (fun keys ->
      let serial = Lw_pir.Server.answer_batch server keys in
      let shares, t =
        traced snap (fun () -> Lw_pir.Server.answer_partitioned ~partitions server keys)
      in
      (t, Array.for_all2 String.equal shares serial))
    [ Array.map fst pairs; Array.map snd pairs ]

let check_partitioned_scan ?(domain_bits = 6) ?(bucket_size = 32)
    ?(partition_counts = [ 2; 4; 8 ]) ?(alphas = [ 3; 47 ]) ?(batch = [ 5; 38; 60 ]) () =
  if List.length alphas < 2 then err "check_partitioned_scan: need >= 2 distinct keys"
  else if List.length batch < 2 then err "check_partitioned_scan: need a batch of >= 2 keys"
  else begin
    let expected = List.init (1 lsl domain_bits) Fun.id in
    let describe = function
      | [ alpha ] -> Printf.sprintf "alpha=%d" alpha
      | batch -> Printf.sprintf "batch=[%s]" (String.concat ";" (List.map string_of_int batch))
    in
    let rec check = function
      | [] -> Ok ()
      | (partitions, input) :: rest ->
          let probes =
            partitioned_scan_traces ~domain_bits ~bucket_size ~partitions input
          in
          (* same taint-lint situation as [check_bucket_scan]: comparing a
             key-derived trace against the public walk is this checker's
             entire purpose *)
          (* lw-lint: allow taint lines=10 *)
          let bad_trace = List.exists (fun (t, _) -> t <> expected) probes in
          let bad_share = List.exists (fun (_, ok) -> not ok) probes in
          if bad_trace then
            err
              "partitioned scan trace (partitions=%d, %s) is not the full \
               in-order walk"
              partitions (describe input)
          else if bad_share then
            err "partitioned answer (partitions=%d, %s) differs from serial"
              partitions (describe input)
          else check rest
    in
    let inputs = List.map (fun a -> [ a ]) alphas @ [ batch ] in
    check
      (List.concat_map (fun p -> List.map (fun i -> (p, i)) inputs) partition_counts)
  end

(* ------------------------------------------------------------------ *)
(* CoW snapshot and shard-view scans                                   *)
(* ------------------------------------------------------------------ *)

(* The epoch engine must be invisible to a trace adversary: a scan over
   a snapshot assembled from several copy-on-write epochs (some blocks
   freshly copied, some shared with older epochs) has to touch exactly
   buckets [0..size) in order, and both parties' shares must XOR to the
   queried bucket. Each of [shard_bits] then cuts the same snapshot into
   [2^shard_bits] range views, as a sharded front-end serves it: each
   view answers its [Distributed.split] sub-key, its trace must be
   exactly its own range once each in order, and the shard shares must
   XOR to the whole-snapshot share. Small CoW blocks make the views span
   several blocks, fill one, or sit inside one. *)
let check_snapshot_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(alphas = [ 5; 42 ])
    ?(shard_bits = [ 1; 3; 4 ]) () =
  let size = 1 lsl domain_bits in
  let bucket i gen = Printf.sprintf "bucket-%d-gen%d" i gen in
  (* epoch 1: full fill; small blocks so the domain spans many CoW blocks
     and the second epoch leaves most of them shared *)
  let st =
    Lw_store.create ~block_bytes:(8 * bucket_size) ~domain_bits ~bucket_size ()
  in
  let w1 = Lw_store.writer st in
  for i = 0 to size - 1 do
    Lw_store.Writer.set w1 i (bucket i 0)
  done;
  ignore (Lw_store.Writer.seal w1);
  (* epoch 2: sparse churn *)
  let w2 = Lw_store.writer st in
  let rec churn i =
    if i < size then begin
      Lw_store.Writer.set w2 i (bucket i 1);
      churn (i + 9)
    end
  in
  churn 3;
  let snap = Lw_store.Writer.seal w2 in
  let server = Lw_pir.Server.of_snapshot snap in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-snapshot" in
  let walk base n = List.init n (fun j -> base + j) in
  (* one party's key over each shard width: the shard views' traces and
     the XOR of their shares against the whole-snapshot answer *)
  let rec check_views alpha k whole = function
    | [] -> Ok ()
    | sb :: more ->
        let rem = domain_bits - sb in
        let subs = Lw_dpf.Distributed.split k ~shard_bits:sb in
        let acc = Bytes.make bucket_size '\x00' in
        let bad = ref None in
        Array.iteri
          (fun i sub ->
            let view = Lw_store.Snapshot.sub snap ~base:(i lsl rem) ~domain_bits:rem in
            let share, trace =
              traced snap (fun () -> Lw_pir.Server.answer (Lw_pir.Server.of_snapshot view) sub)
            in
            Lw_util.Xorbuf.xor_string_into ~src:share ~src_pos:0 ~dst:acc ~dst_pos:0
              ~len:bucket_size;
            if trace <> walk (i lsl rem) (1 lsl rem) && !bad = None then bad := Some i)
          subs;
        match !bad with
        | Some i ->
            err "shard view %d of %d: scan trace for alpha=%d is not its own in-order range"
              i (1 lsl sb) alpha
        | None when not (String.equal (Bytes.unsafe_to_string acc) whole) ->
            err "shard views (shard_bits=%d) XOR to a different share for alpha=%d" sb alpha
        | None -> check_views alpha k whole more
  in
  let rec check_alphas = function
    | [] -> Ok ()
    | alpha :: rest -> (
        let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha rng in
        let s0, t0 = traced snap (fun () -> Lw_pir.Server.answer server k0) in
        let s1, t1 = traced snap (fun () -> Lw_pir.Server.answer server k1) in
        let expected = Lw_store.Snapshot.get snap alpha in
        if t0 <> walk 0 size || t1 <> walk 0 size then
          err "CoW snapshot scan trace for alpha=%d is not the full in-order walk: the epoch \
               engine leaks"
            alpha
        else if not (String.equal (Lw_util.Xorbuf.xor s0 s1) expected) then
          err "CoW snapshot shares for alpha=%d do not reconstruct the bucket" alpha
        else
          match check_views alpha k0 s0 shard_bits with
          | Error _ as e -> e
          | Ok () -> (
              match check_views alpha k1 s1 shard_bits with
              | Error _ as e -> e
              | Ok () -> check_alphas rest))
  in
  check_alphas alphas

(* ------------------------------------------------------------------ *)
(* Extent-bounded scan over a sparse store                             *)
(* ------------------------------------------------------------------ *)

(* Bucket [i]'s contents in [sparse_snapshot]'s second epoch and the
   extent they give it, by [i mod 6]: empty, short, a multiple of 64 B,
   odd-length, the whole bucket, and a value whose last 30 bytes are
   zero (its extent stops at its last non-zero byte). Needs buckets of
   at least [Lw_store.whole_scan_below] bytes, which are not read whole. *)
let sparse_value ~bucket_size i =
  let body n = String.init n (fun j -> Char.chr (1 + ((i * 7) + j) mod 255)) in
  match i mod 6 with
  | 0 -> None
  | 1 -> Some (body 5)
  | 2 -> Some (body 128)
  | 3 -> Some (body 77)
  | 4 -> Some (body bucket_size)
  | _ -> Some (body 70 ^ String.make 30 '\x00')

let sparse_extent ~bucket_size i =
  match i mod 6 with 0 -> 0 | 1 -> 64 | 4 -> bucket_size | _ -> 128

(* Two epochs: a full first one, then every bucket rewritten to its
   [sparse_value] — shorter over longer, or cleared — so a stale extent
   from the first epoch would show. Small CoW blocks make views span
   blocks, fill one, or sit inside one. *)
let sparse_snapshot ~domain_bits ~bucket_size =
  let size = 1 lsl domain_bits in
  let st = Lw_store.create ~block_bytes:(8 * bucket_size) ~domain_bits ~bucket_size () in
  let w1 = Lw_store.writer st in
  Lw_store.Writer.fill_random w1 (Lw_util.Det_rng.of_string_seed "trace-check-sparse");
  ignore (Lw_store.Writer.seal w1);
  let w2 = Lw_store.writer st in
  for i = 0 to size - 1 do
    match sparse_value ~bucket_size i with
    | None -> Lw_store.Writer.clear w2 i
    | Some v -> Lw_store.Writer.set w2 i v
  done;
  Lw_store.Writer.seal w2

(* Run [f] traced; its result, the buckets it touched and the bytes it
   read at each. *)
let traced_bytes snap f =
  Lw_store.Snapshot.set_tracing snap true;
  let r = f () in
  let t = Lw_store.Snapshot.access_trace snap and b = Lw_store.Snapshot.access_bytes snap in
  Lw_store.Snapshot.set_tracing snap false;
  (r, (t, b))

(* The extent-bounded scan reads each bucket only up to its extent, so
   what a memory observer sees is the bucket walk plus the bytes read at
   each bucket. Both must be public: the in-order walk and the
   snapshot's extent map, the same for every secret and both parties.
   Over a sparse store (every bucket kind of [sparse_value]), for each
   width, two batches of distinct secrets and both parties' shares run
   (1) [answer_batch] on the whole snapshot, (2) every [Snapshot.sub]
   view of each [shard_bits] on its [Distributed.split] sub-keys and
   (3) [answer_partitioned] on one worker at each partition count. Every
   trace must be the walk of its range with that range's extents; the
   view shares must XOR to the whole share, the partitioned shares equal
   the serial ones, and the two parties' whole shares XOR to the queried
   buckets, so the check cannot pass on a scan that reads nothing. The
   extent map itself must be each kind's, with only zero bytes past
   each extent. *)
let sparse_scan ~domain_bits ~bucket_size ~widths ~shard_bits ~partitions =
  let size = 1 lsl domain_bits in
  let snap = sparse_snapshot ~domain_bits ~bucket_size in
  let extents = List.init size (Lw_store.Snapshot.extent snap) in
  let expected base n =
    (List.init n (fun j -> base + j), List.filteri (fun i _ -> i >= base && i < base + n) extents)
  in
  let zero_tails =
    List.for_all
      (fun i ->
        let e = Lw_store.Snapshot.extent snap i and b = Lw_store.Snapshot.get snap i in
        Lw_util.Xorbuf.is_zero (String.sub b e (bucket_size - e)))
      (List.init size Fun.id)
  in
  let server = Lw_pir.Server.of_snapshot snap in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-sparse-dpf" in
  let batch w seed = List.init w (fun q -> ((seed * 29) + (q * 13)) mod size) in
  let probe alphas =
    let pairs = Array.of_list (List.map (fun alpha -> Lw_dpf.Dpf.gen ~domain_bits ~alpha rng) alphas) in
    [ Array.map fst pairs; Array.map snd pairs ]
  in
  (* one party's batch: its whole share and traces, or the first
     failure among the views and partitions *)
  let run keys =
    let whole, tr = traced_bytes snap (fun () -> Lw_pir.Server.answer_batch server keys) in
    if tr <> expected 0 size then Error "whole-snapshot scan"
    else
      let rec views = function
        | [] -> Ok ()
        | sb :: more ->
            let rem = domain_bits - sb in
            let subs = Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:sb) keys in
            let accs = Array.map (fun _ -> Bytes.make bucket_size '\x00') keys in
            let bad = ref None in
            for v = 0 to (1 lsl sb) - 1 do
              let view = Lw_store.Snapshot.sub snap ~base:(v lsl rem) ~domain_bits:rem in
              let shares, tr =
                traced_bytes snap (fun () ->
                    Lw_pir.Server.answer_batch (Lw_pir.Server.of_snapshot view)
                      (Array.map (fun s -> s.(v)) subs))
              in
              Array.iteri
                (fun q sh ->
                  Lw_util.Xorbuf.xor_string_into ~src:sh ~src_pos:0 ~dst:accs.(q) ~dst_pos:0
                    ~len:bucket_size)
                shares;
              if tr <> expected (v lsl rem) (1 lsl rem) && !bad = None then bad := Some v
            done;
            match !bad with
            | Some v -> Error (Printf.sprintf "view %d of %d" v (1 lsl sb))
            | None
              when not (Array.for_all2 (fun a s -> String.equal (Bytes.to_string a) s) accs whole)
              ->
                Error (Printf.sprintf "views of shard_bits=%d XOR to another share" sb)
            | None -> views more
      in
      let rec parts = function
        | [] -> Ok ()
        | p :: more ->
            let shares, tr =
              traced_bytes snap (fun () -> Lw_pir.Server.answer_partitioned ~partitions:p server keys)
            in
            if tr <> expected 0 size then Error (Printf.sprintf "partitions=%d" p)
            else if not (Array.for_all2 String.equal shares whole) then
              Error (Printf.sprintf "partitions=%d shares differ from serial" p)
            else parts more
      in
      match views shard_bits with
      | Error _ as e -> e
      | Ok () -> ( match parts partitions with Error _ as e -> e | Ok () -> Ok whole)
  in
  let rec check_widths = function
    | [] -> Ok ()
    | w :: rest ->
        let rec check_batches = function
          | [] -> check_widths rest
          (* both parties' shares and traces, checked as in [run] *)
          (* lw-lint: allow taint lines=8 *)
          | alphas :: more -> (
              match List.map run (probe alphas) with
              | [ Ok s0; Ok s1 ] ->
                  let got = Array.map2 Lw_util.Xorbuf.xor s0 s1 in
                  let want = Array.of_list (List.map (Lw_store.Snapshot.get snap) alphas) in
                  if Array.for_all2 String.equal got want then check_batches more
                  else err "sparse scan shares (width %d) do not reconstruct the buckets" w
              | results ->
                  let where =
                    List.filter_map (function Error e -> Some e | Ok _ -> None) results
                  in
                  err "sparse scan trace (width %d, %s) is not the walk with the extent map" w
                    (String.concat "; " where))
        in
        check_batches [ batch w 1; batch w 2 ]
  in
  if not zero_tails then err "a sparse bucket holds a non-zero byte past its extent"
  else if extents <> List.init size (sparse_extent ~bucket_size) then
    err "sparse store's extent map is not its buckets' kinds"
  else check_widths widths

let check_sparse_scan ?(domain_bits = 6) ?(bucket_size = 600) ?(widths = [ 1; 5; 9 ])
    ?(shard_bits = [ 1; 3 ]) ?(partitions = [ 2; 4 ]) () =
  if bucket_size < Lw_store.whole_scan_below then
    err "check_sparse_scan: buckets under %d B are read whole" Lw_store.whole_scan_below
  else sparse_scan ~domain_bits ~bucket_size ~widths ~shard_bits ~partitions

(* ------------------------------------------------------------------ *)
(* Single-server PIR scan (Single mode)                                *)
(* ------------------------------------------------------------------ *)

(* The LWE answer path promises the same observable shape as the
   two-server XOR scan: one pass over every bucket in index order,
   whatever column the masked query selects. Build a two-epoch CoW
   store (so the snapshot mixes shared and copied blocks, like
   [check_snapshot_scan]), issue queries for several distinct secret
   indices, and assert that every scan trace is exactly the public
   full walk — and that each query still recovers its bucket's bytes,
   so the checker can't pass vacuously on a broken scan. *)
let check_spir_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(indices = [ 5; 42 ]) () =
  let size = 1 lsl domain_bits in
  let bucket i gen = Printf.sprintf "bucket-%d-gen%d" i gen in
  let st =
    Lw_store.create ~hash_key:"trace-check-spir" ~block_bytes:(8 * bucket_size)
      ~domain_bits ~bucket_size ()
  in
  let w1 = Lw_store.writer st in
  for i = 0 to size - 1 do
    Lw_store.Writer.set w1 i (bucket i 0)
  done;
  ignore (Lw_store.Writer.seal w1);
  let w2 = Lw_store.writer st in
  let rec churn i =
    if i < size then begin
      Lw_store.Writer.set w2 i (bucket i 1);
      churn (i + 9)
    end
  in
  churn 3;
  let snap = Lw_store.Writer.seal w2 in
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
            Lw_store.Snapshot.set_tracing snap true;
            (* feeding a secret-derived query into the server path (and
               branching on what comes back) is this checker's entire
               purpose, like every probe above *)
            (* lw-lint: allow taint lines=14 *)
            let answered = Lw_pir.Spir.answer snap query in
            let trace = Lw_store.Snapshot.access_trace snap in
            Lw_store.Snapshot.set_tracing snap false;
            match answered with
            | Error e -> err "spir answer failed for index=%d: %s" index e
            | Ok answer ->
                if trace <> expected_trace then
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

let check_all () =
  match check_enclave () with
  | Error _ as e -> e
  | Ok () -> (
      match check_bucket_scan () with
      | Error _ as e -> e
      | Ok () -> (
          match check_batch_scan () with
          | Error _ as e -> e
          | Ok () -> (
              match check_partitioned_scan () with
              | Error _ as e -> e
              | Ok () -> (
                  match check_snapshot_scan () with
                  | Error _ as e -> e
                  | Ok () -> (
                      match check_sparse_scan () with
                      | Error _ as e -> e
                      | Ok () -> (
                          match check_spir_scan () with
                          | Error _ as e -> e
                          | Ok () ->
                              List.fold_left
                                (fun acc verb ->
                                  match acc with Error _ -> acc | Ok () -> check_retry ~verb ())
                                (Ok ()) retry_verbs))))))
