(** Sharded ZLTP data plane (§5.2): a front-end over an epoch-versioned
    store owns [2^shard_bits] data shards, each serving the slice of the
    bucket domain whose top bits equal its shard index, as a zero-copy
    view of one pinned snapshot. Per query, the front-end expands the top of the
    client's DPF tree, hands every shard its sub-tree root, and XORs the
    shard answers — so each shard pays only the small-domain evaluation
    cost, exactly the distribution argument the paper's Table 2 scale-up
    rests on. *)

type t

val of_store : Lw_store.t -> shard_bits:int -> t
(** Pin the engine's current epoch and serve it: shard [i] answers from
    the zero-copy range view ({!Lw_store.Snapshot.sub}) of the buckets
    whose top [shard_bits] bits equal [i]. Raises [Invalid_argument]
    unless [0 < shard_bits < domain_bits]. *)

val refresh : t -> int
(** Pin the engine's latest epoch, build its view set and swap it in
    with one write, then release the pin the replaced view set held.
    Returns how many shards' views moved: every shard when the epoch
    changed, 0 when it had not. No bucket is copied, and answers already
    running finish on the view set they started with. *)

(** {2 View sets}

    A view set is immutable: one pinned snapshot plus the
    [2^shard_bits] shard servers over its range views. Every shard of a
    view set serves the same epoch, so shares from different epochs can
    never be XORed together. *)

type views

val current : t -> views
(** The view set answers are served from now. *)

val epoch : views -> int

val announced_epoch : t -> int
(** The current view set's epoch — what the server announces in
    [Welcome] / [Health_reply] (also the [zltp.frontend.epoch] gauge). *)

val domain_bits : t -> int
val shard_bits : t -> int
val shard_count : t -> int
val bucket_size : t -> int

val shard_histograms : t -> Lw_obs.Metrics.histogram array
(** The per-shard answer-latency histograms
    ([zltp.frontend.shardNN.answer_seconds]), indexed by shard — what
    {!Lw_obs.Metrics.merge_into} folds into one fleet-wide view. *)

(** {2 Scan parallelism}

    Per-shard scans can run on OCaml domains ([Lw_pir.Server.answer_batch
    ~domains]); {!Lw_pir.Server.parallel_cutoff_bytes} keeps small
    shards on the serial kernel regardless. *)

val set_scan_domains : t -> int -> unit
(** Workers each shard's scan may use; 1 (the default) is the serial
    fused kernel. Raises [Invalid_argument] when [< 1]. *)

val scan_domains : t -> int

(** {2 Shard health}

    An answer share is the XOR over {e every} shard's contribution, so a
    single unreachable shard makes the whole share silently wrong. The
    front-end therefore tracks per-shard availability and
    {!answer_batch_result} refuses — with a structured error naming the
    down shards — rather than return a partial XOR. *)

val set_shard_down : t -> int -> bool -> unit
(** Mark shard [i] unreachable (or back up). Used operationally and by the
    chaos harness to inject backend degradation. *)

val shards_down : t -> int
(** Number of shards currently marked down. *)

val answer_batch : t -> Lw_dpf.Dpf.key array -> string array
(** Private-GET answer shares for full-domain DPF keys, from the
    {!current} view set (read once). The front-end splits each key once
    into per-shard sub-keys ({!Lw_dpf.Distributed.split}), hands each
    shard the whole batch of its sub-keys, which the shard answers
    through the batch scan kernel ({!Lw_pir.Server.answer_batch}) in one
    streamed traversal of its slice, and XORs each query's per-shard
    shares. A batch of one is a single answer ([zltp.frontend.answers]
    and the [zltp.frontend.answer] span); wider batches count in
    [zltp.frontend.batch_queries]. Every shard feeds its
    [zltp.frontend.shardNN.answer_seconds] histogram. *)

val answer : t -> Lw_dpf.Dpf.key -> string
(** [answer t k] is [(answer_batch t [|k|]).(0)]. *)

val answer_batch_result :
  t -> views -> Lw_dpf.Dpf.key array -> (string array, string) result
(** {!answer_batch} against the given view set, refusing with [Error]
    naming the down shards, before any key is split, when any shard is
    unavailable. *)
