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

(* The one lane driver: scan every bucket for [keys] into one
   accumulator per key. Eval and scan are fused: each block of DPF leaf
   bytes is XOR-consumed against the matching database block the moment
   the traversal produces it, so there is no full-domain bits buffer and
   one pass over the data. A lone key's 0/1 leaf bytes are plane 0 of a
   one-lane kernel call as they stand. Wider batches OR each key's leaf
   bytes into bit [q land 7] of plane [q lsr 3] of one lane-plane buffer
   ([ceil(k/8) * size] bytes), then every fused block feeds all [k]
   accumulators in one pass of the kernel. *)
let scan_lanes t ~keys ~accs =
  let block_bits = block_bits_for t in
  if Array.length keys = 1 then
    Lw_dpf.Dpf.eval_bits_blocked keys.(0) ~block_bits (fun base buf count ->
        Lw_store.Snapshot.xor_block_into_lanes t ~base ~count ~bits:buf ~bits_pos:0
          ~stride:count ~dsts:accs)
  else begin
    let span = size t in
    let bits = Bytes.make (((Array.length keys + 7) / 8) * span) '\x00' in
    Array.iteri
      (fun q k ->
        let plane = (q lsr 3) * span and lane = q land 7 in
        Lw_dpf.Dpf.eval_bits_blocked k ~block_bits (fun base buf count ->
            Lw_util.Xorbuf.set_lane_bits ~src:buf ~src_pos:0 ~dst:bits ~dst_pos:(plane + base)
              ~len:count ~lane))
      keys;
    let block = 1 lsl block_bits in
    for b = 0 to (span / block) - 1 do
      Lw_store.Snapshot.xor_block_into_lanes t ~base:(b * block) ~count:block ~bits
        ~bits_pos:(b * block) ~stride:span ~dsts:accs
    done
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Every answer is a batch: the whole domain through the lane driver on
   the calling domain. *)
let answer_batch t keys =
  Array.iter (check_domain t) keys;
  let n = Array.length keys in
  let accs = Array.init n (fun _ -> Bytes.make (bucket_size t) '\x00') in
  if n > 0 then begin
    scan_lanes t ~keys ~accs;
    (* a call streams the database once whatever its width, each bucket
       up to its extent, and a batch of one is an answer *)
    if n > 1 then Lw_obs.Metrics.incr m_batches;
    Lw_obs.Metrics.add m_answers n;
    Lw_obs.Metrics.add m_scan_bytes (Lw_store.Snapshot.scan_bytes t)
  end;
  Array.map Bytes.unsafe_to_string accs

let answer t k = (answer_batch t [| k |]).(0)
