(* A server answers over one pinned [Lw_store] snapshot, or a range view
   of one: the database keeps moving underneath, and each answer must come
   from exactly the epoch the client queried. A sharded front-end serves
   each shard from a view of the same pinned snapshot, so the scan below
   never learns whether it walks a whole database or one slice of it. *)

type t = Lw_store.Snapshot.t

let of_snapshot snap = snap
let epoch = Lw_store.Snapshot.epoch
let domain_bits = Lw_store.Snapshot.domain_bits
let size = Lw_store.Snapshot.size
let bucket_size = Lw_store.Snapshot.bucket_size
let total_bytes = Lw_store.Snapshot.total_bytes

let check_domain t k =
  if Lw_dpf.Dpf.domain_bits k <> domain_bits t then
    invalid_arg "Server: key domain does not match database"

(* Reference two-pass path: materialise one selection byte per bucket,
   then walk the database a second time. Kept (unchanged from the seed,
   checked-word kernel included) as the baseline the fused and batched
   kernels are benchmarked (E19) and property-tested against, and so E1
   can time the DPF and scan phases separately. *)

let eval_bits t k =
  check_domain t k;
  let bits = Bytes.create (size t) in
  Lw_dpf.Dpf.eval_all_bits k (fun i b -> Bytes.unsafe_set bits i (Char.unsafe_chr b));
  bits

(* Every bucket is visited with identical work: the selection bit becomes
   a byte mask (0x00/0xff) arithmetically, never a branch, so the scan's
   memory trace is the full [0..size) walk no matter which key share the
   query carries. Lint rule [secret-branch] and the dynamic checker in
   [Lw_analysis.Trace_check] both watch this property. *)
let mask_of_bit b = (0 - (b land 1)) land 0xff

let scan t bits =
  let acc = Bytes.make (bucket_size t) '\x00' in
  for i = 0 to size t - 1 do
    let mask = mask_of_bit (Char.code (Bytes.unsafe_get bits i)) in
    Lw_store.Snapshot.xor_bucket_into_masked t i ~mask ~dst:acc
  done;
  Bytes.unsafe_to_string acc

(* ------------------------------------------------------------------ *)
(* The fused, blocked kernel — the only production scan path           *)
(* ------------------------------------------------------------------ *)

(* Cache budget for one streamed block of database: big enough to
   amortise per-block overheads, small enough that a single answer's
   block of DPF leaf bytes is still in cache when the kernel reads it.
   Matches [Lw_store]'s CoW block budget, so a fused-scan block never
   spans more than two CoW blocks of a snapshot. *)
let block_bytes = 1 lsl 18

let block_bits_for t =
  let bucket = bucket_size t in
  let d = domain_bits t in
  let rec fit b = if b >= d || (1 lsl (b + 1)) * bucket > block_bytes then b else fit (b + 1) in
  fit 0

(* Registry counters: one increment + one add per answer, so the fused
   scan stays within the E21 overhead budget (<2%). *)
let m_answers = Lw_obs.Metrics.counter "pir.server.answers"
let m_batches = Lw_obs.Metrics.counter "pir.server.batch_answers"
let m_scan_bytes = Lw_obs.Metrics.counter "pir.server.scan_bytes"

(* Eval↔scan fusion: each block of DPF leaf bits is XOR-consumed against
   the matching database block the moment the traversal produces it — no
   full-domain bits buffer, one pass over the data, per-block bounds
   checks instead of per-bucket ones. The leaf bytes are 0/1, so they
   are plane 0 of a one-lane call to the batch kernel. *)
let answer t k =
  check_domain t k;
  let acc = Bytes.make (bucket_size t) '\x00' in
  Lw_dpf.Dpf.eval_bits_blocked k ~block_bits:(block_bits_for t) (fun base bits count ->
      Lw_store.Snapshot.xor_block_into_lanes t ~base ~count ~bits ~bits_pos:0 ~stride:count
        ~dsts:[| acc |]);
  Lw_obs.Metrics.incr m_answers;
  Lw_obs.Metrics.add m_scan_bytes (total_bytes t);
  Bytes.unsafe_to_string acc

(* The batch scan over the [2^rem] buckets from [lo]: [keys] are rebased
   to that range (the full domain when [lo = 0]). Each key's blocked
   traversal ORs its 0/1 leaf bytes into bit [q land 7] of plane
   [q lsr 3] of [bits] (at least [ceil(k/8) * 2^rem] bytes), then every
   fused block feeds all [k] accumulators in one pass of the kernel. *)
let scan_lanes t ~keys ~lo ~rem ~bits ~accs =
  let span = 1 lsl rem in
  let block_bits = min rem (block_bits_for t) in
  Bytes.fill bits 0 (((Array.length keys + 7) / 8) * span) '\x00';
  Array.iteri
    (fun q k ->
      let plane = (q lsr 3) * span and lane = q land 7 in
      Lw_dpf.Dpf.eval_bits_blocked k ~block_bits (fun base buf count ->
          Lw_util.Xorbuf.set_lane_bits ~src:buf ~src_pos:0 ~dst:bits ~dst_pos:(plane + base)
            ~len:count ~lane))
    keys;
  let block = 1 lsl block_bits in
  for b = 0 to (span / block) - 1 do
    Lw_store.Snapshot.xor_block_into_lanes t ~base:(lo + (b * block)) ~count:block ~bits
      ~bits_pos:(b * block) ~stride:span ~dsts:accs
  done

(* A batch of one is the fused single answer; wider batches share one
   streamed traversal of the database through the same kernel. *)
let answer_batch t keys =
  Array.iter (check_domain t) keys;
  let n = Array.length keys in
  if n = 0 then [||]
  else if n = 1 then [| answer t keys.(0) |]
  else begin
    let d = domain_bits t in
    let bits = Bytes.create (((n + 7) / 8) lsl d) in
    let accs = Array.init n (fun _ -> Bytes.make (bucket_size t) '\x00') in
    scan_lanes t ~keys ~lo:0 ~rem:d ~bits ~accs;
    Lw_obs.Metrics.incr m_batches;
    Lw_obs.Metrics.add m_answers n;
    (* one pass per block: the batch streams the database once, whatever
       its width *)
    Lw_obs.Metrics.add m_scan_bytes (total_bytes t);
    Array.map Bytes.unsafe_to_string accs
  end

(* ------------------------------------------------------------------ *)
(* Domain-partitioned parallel scan                                    *)
(* ------------------------------------------------------------------ *)

(* The bucket domain splits into 2^levels aligned sub-ranges; each worker
   rebases the client key at its sub-range's internal tree node
   ([Dpf.make_subkey] via [Distributed.split]) and runs the *same* fused
   kernel over the remaining bits, so no worker pays the full-domain DPF
   evaluation and the per-partition memory trace is the partition's full
   contiguous walk — the leakage profile of the serial scan, cut into
   aligned pieces (see SECURITY.md). *)

(* Below this a parallel answer is all spawn/join overhead: the fused
   serial kernel finishes a 1 MiB scan in well under a millisecond. *)
let parallel_cutoff_bytes = 1 lsl 20

let m_parallel = Lw_obs.Metrics.counter "pir.server.parallel_answers"

(* Smallest power-of-two partition count >= [requested], clamped so the
   split stays a strict prefix of the key's tree ([levels < domain_bits]). *)
let partition_levels t requested =
  let d = domain_bits t in
  let rec up l = if 1 lsl l >= requested then l else up (l + 1) in
  min (d - 1) (max 1 (up 0))

(* XOR partition [prefix]'s contribution into [acc]. [sub] is the key
   rebased at the partition's root; its domain is the bottom [rem] bits. *)
let scan_partition t ~sub ~prefix ~rem ~acc =
  let base = prefix lsl rem in
  Lw_dpf.Dpf.eval_bits_blocked sub
    ~block_bits:(min rem (block_bits_for t))
    (fun b bits count ->
      Lw_store.Snapshot.xor_block_into_lanes t ~base:(base + b) ~count ~bits ~bits_pos:0
        ~stride:count ~dsts:[| acc |])

(* Serial schedule over the exact per-partition kernels the parallel path
   runs: the deterministic twin [Trace_check.check_partitioned_scan]
   drives, and the per-partition timer the bench uses to report the
   critical path (max partition time) a multi-core machine would pay. *)
let answer_partitioned_timed ?(partitions = 2) t k =
  check_domain t k;
  let levels = partition_levels t partitions in
  let subs = Lw_dpf.Distributed.split k ~shard_bits:levels in
  let rem = domain_bits t - levels in
  let acc = Bytes.make (bucket_size t) '\x00' in
  let clock = Lw_obs.Span.clock () in
  let times =
    Array.mapi
      (fun prefix sub ->
        let t0 = Lw_obs.Clock.now clock in
        scan_partition t ~sub ~prefix ~rem ~acc;
        Lw_obs.Clock.now clock -. t0)
      subs
  in
  Lw_obs.Metrics.incr m_answers;
  Lw_obs.Metrics.add m_scan_bytes (total_bytes t);
  (Bytes.unsafe_to_string acc, times)

let answer_partitioned ?partitions t k = fst (answer_partitioned_timed ?partitions t k)

let join_all_reraise doms =
  (* Join every domain before acting on any failure, so a raising worker
     can neither leak the other domains nor let a partially-reduced
     accumulator escape. *)
  let first_failure =
    List.fold_left
      (fun acc d ->
        match Domain.join d with
        | () -> acc
        | exception e -> ( match acc with None -> Some e | Some _ -> acc))
      None doms
  in
  match first_failure with Some e -> raise e | None -> ()

let worker_count domains =
  match domains with Some n -> max 1 n | None -> Domain.recommended_domain_count ()

let answer_domains ?(cutoff_bytes = parallel_cutoff_bytes) ?domains t k =
  check_domain t k;
  let workers = worker_count domains in
  if workers <= 1 || domain_bits t < 2 || total_bytes t < cutoff_bytes then answer t k
  else begin
    let levels = partition_levels t workers in
    let subs = Lw_dpf.Distributed.split k ~shard_bits:levels in
    let parts = Array.length subs in
    let rem = domain_bits t - levels in
    let nw = min workers parts in
    let accs = Array.init nw (fun _ -> Bytes.make (bucket_size t) '\x00') in
    let next = Atomic.make 0 in
    (* Workers claim partitions through [Atomic.fetch_and_add] and worker
       [w] only ever writes its own [accs.(w)]; the joins below give this
       domain the happens-before edge back before the XOR reduce. *)
    (* lw-lint: allow race lines=11 *)
    let worker w () =
      let acc = accs.(w) in
      let rec go () =
        let prefix = Atomic.fetch_and_add next 1 in
        if prefix < parts then begin
          scan_partition t ~sub:subs.(prefix) ~prefix ~rem ~acc;
          go ()
        end
      in
      go ()
    in
    join_all_reraise (List.init nw (fun w -> Domain.spawn (worker w)));
    let out = accs.(0) in
    for w = 1 to nw - 1 do
      Lw_util.Xorbuf.xor_into ~src:accs.(w) ~src_pos:0 ~dst:out ~dst_pos:0 ~len:(bucket_size t)
    done;
    Lw_obs.Metrics.incr m_answers;
    Lw_obs.Metrics.incr m_parallel;
    Lw_obs.Metrics.add m_scan_bytes (total_bytes t);
    Bytes.unsafe_to_string out
  end

let answer_batch_domains ?(cutoff_bytes = parallel_cutoff_bytes) ?domains t keys =
  Array.iter (check_domain t) keys;
  let n = Array.length keys in
  let workers = worker_count domains in
  if n = 0 then [||]
  else if workers <= 1 || domain_bits t < 2 || total_bytes t < cutoff_bytes then
    answer_batch t keys
  else if n = 1 then [| answer_domains ~cutoff_bytes ?domains t keys.(0) |]
  else begin
    let levels = partition_levels t workers in
    let rem = domain_bits t - levels in
    let parts = 1 lsl levels in
    let subs = Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:levels) keys in
    let by_part = Array.init parts (fun p -> Array.map (fun s -> s.(p)) subs) in
    let nw = min workers parts in
    let bucket = bucket_size t in
    let accs = Array.init nw (fun _ -> Array.init n (fun _ -> Bytes.make bucket '\x00')) in
    let next = Atomic.make 0 in
    (* Same discipline as [answer_domains]: claimed partitions, per-worker
       accumulators, join-then-reduce. *)
    (* lw-lint: allow race lines=11 *)
    let worker w () =
      let bits = Bytes.create (((n + 7) / 8) lsl rem) in
      let rec go () =
        let prefix = Atomic.fetch_and_add next 1 in
        if prefix < parts then begin
          scan_lanes t ~keys:by_part.(prefix) ~lo:(prefix lsl rem) ~rem ~bits ~accs:accs.(w);
          go ()
        end
      in
      go ()
    in
    join_all_reraise (List.init nw (fun w -> Domain.spawn (worker w)));
    let out = accs.(0) in
    for w = 1 to nw - 1 do
      for q = 0 to n - 1 do
        Lw_util.Xorbuf.xor_into ~src:accs.(w).(q) ~src_pos:0 ~dst:out.(q) ~dst_pos:0 ~len:bucket
      done
    done;
    Lw_obs.Metrics.incr m_batches;
    Lw_obs.Metrics.incr m_parallel;
    Lw_obs.Metrics.add m_answers n;
    Lw_obs.Metrics.add m_scan_bytes (total_bytes t);
    Array.map Bytes.unsafe_to_string out
  end

let answer_serialized t key_bytes =
  match Lw_dpf.Dpf.deserialize key_bytes with
  | Error e -> Error ("bad DPF key: " ^ Lw_dpf.Dpf.decode_error_message e)
  | Ok k ->
      if Lw_dpf.Dpf.domain_bits k <> domain_bits t then Error "domain mismatch"
      else Ok (answer t k)
