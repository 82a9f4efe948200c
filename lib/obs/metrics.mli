(** Process-wide metrics registry.

    Three metric kinds, all safe under domain/thread concurrency:

    - {b counters}: monotone [int Atomic.t] increments — exact even when
      bumped from several [Domain]s at once;
    - {b gauges}: last-writer-wins [float Atomic.t];
    - {b histograms}: log-bucketed latency distributions. Only bucket
      counts, a running sum and the max are retained — {e no raw
      samples} — so an exported dump can never replay the exact timing
      sequence of an individual query (privacy hygiene, see DESIGN.md),
      and memory stays O(1) per histogram.

    Metrics are registered by name on first use and live for the whole
    process; handles are cheap to cache in module-level [let]s. All
    mutation is gated on {!is_enabled}, so benchmarks can measure the
    instrumented code path with recording off ([set_enabled false]). *)

val set_enabled : bool -> unit
(** Globally enable/disable recording (default: enabled). Disabling
    makes every [incr]/[add]/[set]/[observe] a single atomic read. *)

val is_enabled : unit -> bool

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create. Raises [Invalid_argument] if [name] is already
    registered as a different kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit

(** {2 Histograms} *)

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one sample (seconds, bytes, …; any non-negative float). *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_max : histogram -> float
(** Largest observed sample; [0.] when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: nearest-rank quantile estimated
    from the buckets — the geometric midpoint of the bucket the rank
    falls in, clamped to the observed max. Off from the exact sample
    quantile by at most one bucket (a factor of [sqrt 2]). [0.] when
    empty. *)

val scratch_histogram : unit -> histogram
(** A fresh histogram {e outside} the registry — an aggregation target
    for {!merge_into} (e.g. folding per-shard histograms into one fleet
    view) that never shows up in {!snapshot} and needs no name. *)

val merge_into : into:histogram -> histogram -> unit
(** [merge_into ~into src] adds [src]'s bucket counts, count, sum and max
    into [into], leaving [src] untouched. Bucketing is deterministic, so
    the result is exactly the histogram that would have come from
    observing both sample streams into one histogram — no counts are
    lost or re-binned (the QCheck property in [test_obs] holds this
    exactly, not approximately). Safe under concurrent [observe]s on
    either side; not gated on {!is_enabled}. Raises [Invalid_argument]
    when [into == src]. *)

(** {2 Bucket geometry} (exposed for the exporters and property tests) *)

val n_buckets : int

val bucket_index : float -> int
(** Bucket a sample lands in: bucket 0 is everything [<= 1e-9] s, then
    geometric buckets with ratio [sqrt 2]; the last bucket overflows. *)

val bucket_upper : int -> float
(** Inclusive upper edge of a bucket; [infinity] for the overflow
    bucket. *)

(** {2 Registry} *)

val reset : unit -> unit
(** Zero every registered metric (handles stay valid). For tests and
    benchmark isolation. *)

type hist_snapshot = {
  count : int;
  sum : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  nonzero_buckets : (float * int) list;
      (** (inclusive upper edge, count), ascending; empty buckets elided *)
}

val snapshot_hist : histogram -> hist_snapshot
(** Point-in-time view of one histogram (registered or scratch). *)

type snapshot_item =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * hist_snapshot

val snapshot : unit -> snapshot_item list
(** Consistent-enough point-in-time view of every metric, sorted by
    name. (Individual metrics are read atomically; the set is not a
    cross-metric transaction.) *)
