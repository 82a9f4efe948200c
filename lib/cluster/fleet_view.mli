(** Fleet-wide metric aggregation from Prometheus text expositions.

    The supervisor scrapes every shard process over the control channel
    ([Ctl.Scrape]) and {!ingest}s each exposition here. Counters and
    histogram bucket counts add exactly across processes — histograms
    are reconstructed from the full-precision cumulative
    [_bucket{le="..."}] samples {!Lw_obs.Export.to_prometheus} emits and
    folded together with {!Lw_obs.Metrics.merge_into}, so the fleet view
    has exactly the bucket counts a single process observing every
    sample would have. Histogram [sum]/[max] are carried exactly from
    the scraped [_sum]/[_max] samples (the reconstruction alone would
    only bound them to a bucket). Gauges are last-ingest-wins.

    Lookup names may be dotted ([lw_cluster.shard.refreshes_total]) or
    already sanitized — both resolve to the same series. *)

type t

val create : unit -> t

val ingest : t -> string -> unit
(** Fold one process's exposition text into the view. Unrecognized lines
    are skipped; a malformed sample line raises [Failure]. *)

val sources : t -> int
(** Number of successful {!ingest}s. *)

val counter : t -> string -> int
(** Summed across every ingest; [0] when the series was never seen. *)

val histogram : t -> string -> Lw_obs.Metrics.hist_snapshot option
(** The merged fleet histogram: exact bucket counts/count/sum/max,
    quantiles at {!Lw_obs.Metrics.quantile}'s bucket granularity. *)
