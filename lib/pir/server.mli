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
    kernel's one-lane call. {!answer}, {!answer_batch} and
    {!answer_partitioned} are its three entry points.

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

val answer : ?domains:int -> t -> Lw_dpf.Dpf.key -> string
(** One private-GET response share through the fused lane driver.
    [domains] (default 1) is the worker count the scan may use: above 1,
    and once the database reaches {!parallel_cutoff_bytes}, the scan is
    partitioned as in {!answer_partitioned} and run on that many OCaml
    domains; the share is byte-identical either way. *)

val answer_batch : ?domains:int -> t -> Lw_dpf.Dpf.key array -> string array
(** All responses from one streamed traversal of the data. A batch of
    one is {!answer}. Wider batches evaluate each key blockwise into
    packed selection bits ([ceil(k/8) * size] bytes of scratch), then
    run every fused block through {!Lw_util.Xorbuf.xor_extents_lanes}
    in one pass that masks each loaded record into all [k]
    accumulators, so [pir.server.scan_bytes] grows by the bytes up to
    the extents ({!Lw_store.Snapshot.scan_bytes}) once per call,
    whatever the width. Width 2 is the keyword verb's
    two-probe shape. [domains] is as for {!answer}. *)

(** {2 Domain-partitioned scan}

    The bucket domain splits into [2^levels] aligned sub-ranges; each
    partition rebases the client keys at its sub-range's internal tree
    node ({!Lw_dpf.Dpf.make_subkey}) and runs the same lane driver over
    the remaining bits, so no worker pays a full-domain DPF evaluation.
    The partial accumulators XOR-reduce to exactly the serial answer.
    Every partition is still walked in full with mask-selected XORs, so
    the union of the per-worker memory traces is the serial scan's
    trace — parallelism changes who touches a bucket, never whether. *)

val parallel_cutoff_bytes : int
(** Work-size cutoff (1 MiB): below this {!answer} and {!answer_batch}
    stay on one domain whatever [domains] asks for, since a parallel
    answer would be all spawn/join overhead. *)

val answer_partitioned :
  ?partitions:int -> ?domains:int -> t -> Lw_dpf.Dpf.key array -> string array
(** {!answer_batch} through the partitioned driver, with no work-size
    cutoff. [partitions] (default 2) rounds up to a power of two, clamped
    below the domain size. With [domains] at 1 (the default) the
    partitions run inline in ascending order: the schedule the
    obliviousness trace checker drives. With more, that many workers
    (at most one per partition) claim partitions on OCaml domains, each
    into its own accumulators; all are joined before any worker failure
    is re-raised. Byte-identical to {!answer_batch} either way. *)

val run_workers : int -> (int -> unit) -> unit
(** [run_workers n work] runs [work 0] ... [work (n - 1)], each on its own
    OCaml domain, and joins every domain before re-raising the first
    failure, so a raising worker can neither leak the others nor let a
    partial result escape. The serving path's one spawn site: the
    partitioned driver runs its workers here. *)
