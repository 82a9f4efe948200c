(** The two-server PIR server side: per-request DPF evaluation plus the
    linear data scan (the two cost components the paper's §5.1
    microbenchmark separates: 64 ms DPF evaluation + 103 ms scan per GiB).

    The production path is the fused, blocked kernel: {!answer} consumes
    DPF leaf bits block-by-block against the matching database block as
    the traversal produces them, and {!answer_batch} feeds a batch's
    accumulators from one streamed traversal of the data. Both run the
    one C scan kernel, {!Lw_util.Xorbuf.xor_buckets_lanes}; a single
    answer is its one-lane call.

    {!eval_bits} and {!scan} remain the seed's two-pass reference
    implementation: benchmarks (E1, E19) time its phases separately and
    the property tests assert the fused and batched kernels agree with it
    byte-for-byte. *)

type t

val of_snapshot : Lw_store.Snapshot.t -> t
(** Serve one pinned epoch of the versioned engine, or a range view of
    one ({!Lw_store.Snapshot.sub}, how a shard serves its slice). No
    bytes are copied. The caller owns the pin: keep the snapshot pinned
    for as long as the server answers from it. *)

val epoch : t -> int
(** The served epoch. *)

val domain_bits : t -> int
val size : t -> int
val bucket_size : t -> int
val total_bytes : t -> int

val eval_bits : t -> Lw_dpf.Dpf.key -> Bytes.t
(** [eval_bits t k] is one byte (0/1) per bucket, in index order — the
    first pass of the reference path. Raises [Invalid_argument] if the
    key's domain differs from the database's. *)

val scan : t -> Bytes.t -> string
(** [scan t bits] XORs every bucket whose bit is set into a fresh
    accumulator of [bucket_size] bytes — the second pass of the reference
    path (scalar per-bucket masked kernel). *)

val answer : t -> Lw_dpf.Dpf.key -> string
(** One private-GET response share, via the fused single-pass kernel. *)

val answer_batch : t -> Lw_dpf.Dpf.key array -> string array
(** All responses from one streamed traversal of the data. A batch of
    one is {!answer}. Wider batches evaluate each key blockwise into
    packed selection bits ([ceil(k/8) * size] bytes of scratch), then
    run every fused block through {!Lw_util.Xorbuf.xor_buckets_lanes}
    in one pass that masks each loaded record into all [k]
    accumulators, so [pir.server.scan_bytes] grows by one database size
    per call, whatever the width. Width 2 is the keyword verb's
    two-probe shape. *)

(** {2 Domain-partitioned parallel scan}

    The bucket domain splits into [2^levels] aligned sub-ranges; each
    worker rebases the client key at its sub-range's internal tree node
    ({!Lw_dpf.Dpf.make_subkey}) and runs the same fused kernel over the
    remaining bits, so no worker pays a full-domain DPF evaluation. The
    partial accumulators XOR-reduce to exactly the serial answer. Every
    partition is still walked in full with mask-selected XORs, so the
    union of the per-worker memory traces is the serial scan's trace —
    parallelism changes who touches a bucket, never whether. *)

val parallel_cutoff_bytes : int
(** Default work-size cutoff (1 MiB): below this the [_domains] entry
    points fall back to the serial fused kernel, since a parallel answer
    would be all spawn/join overhead. *)

val answer_domains : ?cutoff_bytes:int -> ?domains:int -> t -> Lw_dpf.Dpf.key -> string
(** {!answer} computed by [domains] workers (default
    [Domain.recommended_domain_count ()]) on OCaml domains, each scanning
    claimed partitions into its own accumulator; byte-identical to
    {!answer}. Falls back to the serial kernel when [domains <= 1] or the
    database is smaller than [cutoff_bytes] (tests pass [~cutoff_bytes:0]
    to force the parallel path on small databases). All domains are
    joined before any worker failure is re-raised. *)

val answer_batch_domains :
  ?cutoff_bytes:int -> ?domains:int -> t -> Lw_dpf.Dpf.key array -> string array
(** {!answer_batch} (the batch kernel per partition) with the
    partition-claiming worker scheme of {!answer_domains}; byte-identical
    to {!answer_batch}. *)

val answer_partitioned : ?partitions:int -> t -> Lw_dpf.Dpf.key -> string
(** The partitioned kernels on a serial schedule (ascending partition
    order, no domains): the deterministic twin of {!answer_domains} that
    the obliviousness trace checker drives. [partitions] (default 2)
    rounds up to a power of two, clamped below the domain size. *)

val answer_partitioned_timed : ?partitions:int -> t -> Lw_dpf.Dpf.key -> string * float array
(** {!answer_partitioned} plus per-partition elapsed seconds (span
    clock). [max times] is the critical path an idle [partitions]-core
    machine would pay for the parallel answer — what bench E24 reports as
    the achievable speedup independent of this machine's core count. *)

val answer_serialized : t -> string -> (string, string) result
(** Wire-level entry point: deserialises the key, validates the domain,
    answers. *)
