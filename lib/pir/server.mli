(** The two-server PIR server side: per-request DPF evaluation plus the
    linear data scan (the two cost components the paper's §5.1
    microbenchmark separates: 64 ms DPF evaluation + 103 ms scan per GiB).

    There is one production path, a lane driver that fuses DPF
    evaluation with the scan: each key's leaf bits are consumed
    block-by-block against the matching database block as the traversal
    produces them, and a batch's keys share one streamed traversal of the
    data. It runs the one C scan kernel,
    {!Lw_util.Xorbuf.xor_extents_lanes}, which reads each bucket up to
    its extent ({!Lw_store}); a single answer is a batch of one, the
    kernel's one-lane call. {!answer} and {!answer_batch} are its two
    entry points, and both scan the whole database on the calling
    domain: a request's domain is cut only by a sharded front-end
    ([Lightweb.Zltp_frontend]), never inside one server.

    {!eval_bits} and {!scan} remain the seed's two-pass reference
    implementation: benchmarks (E1, E7, E19) time its phases separately
    and the property tests assert the fused and batched kernels agree
    with it byte-for-byte. *)

type t

val of_snapshot : Lw_store.Snapshot.t -> t
(** Serve one pinned epoch of the versioned engine, or a range view of
    one ({!Lw_store.Snapshot.sub}, how a shard serves its slice). No
    bytes are copied. The caller owns the pin: keep the snapshot pinned
    for as long as the server answers from it. *)

val eval_bits : t -> Lw_dpf.Dpf.key -> Bytes.t
(** [eval_bits t k] is one byte (0/1) per bucket, in index order — the
    first pass of the reference path. Raises [Invalid_argument] if the
    key's domain differs from the database's. *)

val scan : t -> Bytes.t -> string
(** [scan t bits] XORs every bucket whose bit is set into a fresh
    accumulator of [bucket_size] bytes — the second pass of the reference
    path (scalar per-bucket masked kernel). *)

val scan_block_buckets : t -> int
(** The buckets one call of the scan kernel covers, a fused block: those
    that fit 256 KiB, at least {!Lw_util.Xorbuf.sort_chunk}, and at most
    the whole database. Every answer scans a database (or a shard's
    view of one) in runs of this many buckets, whatever CoW blocks
    of the store they span. *)

val answer : t -> Lw_dpf.Dpf.key -> string
(** One private-GET response share through the fused lane driver. *)

val answer_batch : t -> Lw_dpf.Dpf.key array -> string array
(** All responses from one streamed traversal of the data. A batch of
    one is {!answer}. Wider batches evaluate each key blockwise into
    packed selection bits ([ceil(k/8) * size] bytes of scratch), then
    run every fused block through {!Lw_util.Xorbuf.xor_extents_lanes}
    in one pass that masks each loaded record into all [k]
    accumulators, so [pir.server.scan_bytes] grows by the bytes up to
    the extents ({!Lw_store.Snapshot.scan_bytes}) once per call,
    whatever the width. Width 2 is the keyword verb's
    two-probe shape. *)
