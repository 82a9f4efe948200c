(* A server answers over one pinned [Lw_store] snapshot, or a range view
   of one: the database keeps moving underneath, and each answer must come
   from exactly the epoch the client queried. A sharded front-end serves
   each shard from a view of the same pinned snapshot, so the scan below
   never learns whether it walks a whole database or one slice of it. *)

type t = Lw_store.Snapshot.t

let of_snapshot snap = snap
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
   query carries. The lint's taint analysis and the dynamic checker in
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

(* One streamed block of the fused scan: a block's DPF leaf bytes are
   produced, and its buckets scanned, in one kernel call. A block holds
   the buckets that fit [block_bytes], which amortises the traversal's
   and the call's fixed costs over small buckets (a 256 KiB store of
   256 B buckets is one call), and never fewer than the kernel's sort
   chunk ([Xorbuf.sort_chunk] buckets, 2 MiB of 4 KiB buckets), so that
   the sorted walk tiles whole chunks; or the whole range, when that is
   smaller. The scan block and the store's 256 KiB CoW block are
   separate quantities: one call may span many CoW blocks, and the
   kernel addresses each bucket as its block plus its offset. *)
let block_bytes = 1 lsl 18

let block_bits_for t =
  let bucket = bucket_size t in
  let d = domain_bits t in
  let rec fit b =
    if b >= d || ((1 lsl (b + 1)) * bucket > block_bytes && 1 lsl b >= Lw_util.Xorbuf.sort_chunk)
    then b
    else fit (b + 1)
  in
  fit 0

let scan_block_buckets t = 1 lsl block_bits_for t

(* Registry counters: a few atomic increments per call, nothing next to
   the scan they count. *)
let m_answers = Lw_obs.Metrics.counter "pir.server.answers"
let m_batches = Lw_obs.Metrics.counter "pir.server.batch_answers"
let m_scan_bytes = Lw_obs.Metrics.counter "pir.server.scan_bytes"

(* The one lane driver: scan the [2^rem] buckets from [lo] for [keys],
   rebased to that range (the full domain when [lo = 0]), into one
   accumulator per key. Eval and scan are fused: each block of DPF leaf
   bytes is XOR-consumed against the matching database block the moment
   the traversal produces it, so there is no full-domain bits buffer and
   one pass over the data. A lone key's 0/1 leaf bytes are plane 0 of a
   one-lane kernel call as they stand. Wider batches OR each key's leaf
   bytes into bit [q land 7] of plane [q lsr 3] of [bits] (at least
   [ceil(k/8) * 2^rem] bytes), then every fused block feeds all [k]
   accumulators in one pass of the kernel. *)
let scan_lanes t ~keys ~lo ~rem ~bits ~accs =
  let block_bits = min rem (block_bits_for t) in
  if Array.length keys = 1 then
    Lw_dpf.Dpf.eval_bits_blocked keys.(0) ~block_bits (fun base buf count ->
        Lw_store.Snapshot.xor_block_into_lanes t ~base:(lo + base) ~count ~bits:buf ~bits_pos:0
          ~stride:count ~dsts:accs)
  else begin
    let span = 1 lsl rem in
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
  end

(* [scan_lanes]'s lane planes for [n] keys over [2^rem] buckets; a lone
   key needs none. *)
let lane_bits n rem = if n = 1 then Bytes.empty else Bytes.create (((n + 7) / 8) lsl rem)

let zeroed_accs t n = Array.init n (fun _ -> Bytes.make (bucket_size t) '\x00')

(* ------------------------------------------------------------------ *)
(* Domain-partitioned scan                                             *)
(* ------------------------------------------------------------------ *)

(* The bucket domain splits into 2^levels aligned sub-ranges; each
   partition rebases the client keys at its sub-range's internal tree
   node ([Dpf.make_subkey] via [Distributed.split]) and runs the same
   lane driver over the remaining bits, so no worker pays the full-domain
   DPF evaluation and the per-partition memory trace is the partition's
   full contiguous walk — the leakage profile of the serial scan, cut
   into aligned pieces (see SECURITY.md). *)

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

let run_workers n work =
  join_all_reraise (List.init n (fun w -> Domain.spawn (fun () -> work w)))

(* A call streams the database once whatever its width, each bucket up
   to its extent, and a batch of one is an answer. *)
let count t n ~parallel =
  if n > 1 then Lw_obs.Metrics.incr m_batches;
  if parallel then Lw_obs.Metrics.incr m_parallel;
  Lw_obs.Metrics.add m_answers n;
  Lw_obs.Metrics.add m_scan_bytes (Lw_store.Snapshot.scan_bytes t)

(* The partitioned driver: split every key once at [levels], then scan
   the [2^levels] partitions, each with its keys rebased at its root.
   With one worker the partitions run inline in ascending order — the
   schedule [Trace_check.check_scan] observes. Otherwise the
   workers claim partitions through [Atomic.fetch_and_add], each into its
   own accumulators (worker 0 into [accs]), and this domain XOR-reduces
   them into [accs] once every worker has joined. *)
let scan_partitioned t ~levels ~workers keys accs =
  let n = Array.length keys and parts = 1 lsl levels in
  let rem = domain_bits t - levels in
  let subs = Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:levels) keys in
  let scan_part ~bits ~accs p =
    scan_lanes t ~keys:(Array.map (fun s -> s.(p)) subs) ~lo:(p lsl rem) ~rem ~bits ~accs
  in
  let nw = min workers parts in
  if nw <= 1 then begin
    let bits = lane_bits n rem in
    for p = 0 to parts - 1 do
      scan_part ~bits ~accs p
    done
  end
  else begin
    let waccs = Array.init nw (fun w -> if w = 0 then accs else zeroed_accs t n) in
    let next = Atomic.make 0 in
    (* Worker [w] only ever touches its own [waccs.(w)] and lane planes;
       the joins give this domain the happens-before edge back before the
       XOR reduce. *)
    (* lw-lint: allow race lines=2 *)
    run_workers nw (fun w ->
        let accs = waccs.(w) and bits = lane_bits n rem in
        let rec go () =
          let p = Atomic.fetch_and_add next 1 in
          if p < parts then begin
            scan_part ~bits ~accs p;
            go ()
          end
        in
        go ());
    for w = 1 to nw - 1 do
      Array.iteri
        (fun q dst ->
          Lw_util.Xorbuf.xor_into ~src:waccs.(w).(q) ~src_pos:0 ~dst ~dst_pos:0
            ~len:(bucket_size t))
        accs
    done
  end;
  count t n ~parallel:(nw > 1)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Every answer is a batch: the whole domain through the lane driver on
   this domain, or partitioned across [domains] workers once the scan is
   big enough to pay for them. *)
let scan_keys ~domains t keys accs =
  let d = domain_bits t in
  if domains > 1 && d >= 2 && total_bytes t >= parallel_cutoff_bytes then
    scan_partitioned t ~levels:(partition_levels t domains) ~workers:domains keys accs
  else begin
    scan_lanes t ~keys ~lo:0 ~rem:d ~bits:(lane_bits (Array.length keys) d) ~accs;
    count t (Array.length keys) ~parallel:false
  end

let answer ?(domains = 1) t k =
  check_domain t k;
  let acc = Bytes.make (bucket_size t) '\x00' in
  scan_keys ~domains t [| k |] [| acc |];
  Bytes.unsafe_to_string acc

let answer_batch ?(domains = 1) t keys =
  Array.iter (check_domain t) keys;
  let accs = zeroed_accs t (Array.length keys) in
  if Array.length keys > 0 then scan_keys ~domains t keys accs;
  Array.map Bytes.unsafe_to_string accs

let answer_partitioned ?(partitions = 2) ?(domains = 1) t keys =
  Array.iter (check_domain t) keys;
  let accs = zeroed_accs t (Array.length keys) in
  if Array.length keys > 0 then
    scan_partitioned t ~levels:(partition_levels t partitions) ~workers:domains keys accs;
  Array.map Bytes.unsafe_to_string accs
