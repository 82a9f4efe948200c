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

    Per-shard scans can run on OCaml domains
    ({!Lw_pir.Server.answer_domains}); the knob applies to every answer
    path, and {!Lw_pir.Server.parallel_cutoff_bytes} keeps small shards
    on the serial kernel regardless. *)

val set_scan_domains : t -> int -> unit
(** Workers each shard's scan may use; 1 (the default) is the serial
    fused kernel. Raises [Invalid_argument] when [< 1]. *)

val scan_domains : t -> int

(** {2 Hierarchical fan-out tree}

    With a fanout set, single-key answers route through a tree of
    interior nodes, each splitting its incoming key once into
    [2^fanout_bits] sub-keys ({!Lw_dpf.Dpf.eval_prefixes} +
    {!Lw_dpf.Dpf.make_subkey}); leaves hand their sub-key to one data
    shard. A query thus reaches [N] shards with [O(log N)]-deep splits
    plus per-shard small-domain work instead of [N] full-domain
    evaluations, and the XOR of the leaf shares is bit-identical to the
    flat fan-out. Down-shard refusals are checked in the [_result]
    entry points before any walk, so they survive the tree unchanged. *)

val set_tree_fanout : t -> int option -> unit
(** [Some fanout_bits] builds (and routes answers through) the tree;
    [None] restores the flat split. Raises [Invalid_argument] when
    [fanout_bits < 1]. *)

val tree_fanout : t -> int option

val tree_depth : t -> int
(** Interior levels of the active tree ([ceil (shard_bits /
    fanout_bits)]); 0 without a tree. *)

val tree_nodes : t -> int
(** Total tree nodes including leaves; 0 without a tree. *)

(** {2 Shard health}

    An answer share is the XOR over {e every} shard's contribution, so a
    single unreachable shard makes the whole share silently wrong. The
    front-end therefore tracks per-shard availability and the
    [_result] answer paths refuse — with a structured error naming the
    down shards — rather than return a partial XOR. *)

val set_shard_down : t -> int -> bool -> unit
(** Mark shard [i] unreachable (or back up). Used operationally and by the
    chaos harness to inject backend degradation. *)

val shard_down : t -> int -> bool

val shards_down : t -> int
(** Number of shards currently marked down. *)

val answer_result : t -> views -> Lw_dpf.Dpf.key -> (string, string) result
(** {!answer} against the given view set, refusing with [Error] naming
    the down shards when any shard is unavailable. *)

val answer_batch_result :
  t -> views -> Lw_dpf.Dpf.key array -> (string array, string) result

val answer : t -> Lw_dpf.Dpf.key -> string
(** Full private-GET answer share for a full-domain DPF key, from the
    {!current} view set (read once). *)

val answer_batch : t -> Lw_dpf.Dpf.key array -> string array
(** Batched private-GET: each shard receives the whole batch of its
    sub-keys and answers them through the batch scan kernel
    ({!Lw_pir.Server.answer_batch}), so a batch pays one streamed
    traversal of each shard's slice. When a fan-out tree is active
    ({!set_tree_fanout}), each key's sub-keys are derived through the
    hierarchical walk instead of the flat split — bit-identical leaves,
    so the shard batches are unchanged. [answer_batch t [|k|]] and
    [[|answer t k|]] agree byte-for-byte. *)

type shard_timing = { shard : int; eval_s : float; scan_s : float }

val answer_timed : t -> Lw_dpf.Dpf.key -> string * shard_timing list
(** Same, with per-shard eval/scan timings (read off the span clock, so
    virtual clocks make them deterministic) for E7. The sequential
    answer paths also feed the per-shard
    [zltp.frontend.shardNN.answer_seconds] histograms in {!Lw_obs}. *)

type shard_span = { span_shard : int; elapsed_s : float }
(** One shard's total answer time inside a parallel answer. *)

val answer_parallel :
  ?num_domains:int -> ?fault:(int -> unit) -> t -> Lw_dpf.Dpf.key -> string
(** Shard answers computed on OCaml domains ([num_domains] defaults to
    [Domain.recommended_domain_count ()]), modelling the paper's fleet of
    data servers working one request concurrently. All domains are
    joined before any worker failure is re-raised — a raising shard can
    neither leak domains nor let a partial share array be XOR-combined.

    [?fault] is a fault-injection hook for tests and the chaos harness:
    it runs in the worker just before shard [i] computes, so a rigged
    shard can raise exactly where a real backend would fail. *)

val answer_parallel_timed :
  ?num_domains:int ->
  ?fault:(int -> unit) ->
  t ->
  Lw_dpf.Dpf.key ->
  string * shard_span array
(** {!answer_parallel} plus per-shard elapsed times (span clock), the
    parallel counterpart of {!answer_timed} — which the parallel path
    used to silently lack. *)
