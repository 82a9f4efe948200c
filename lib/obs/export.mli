(** Exporters for the metrics registry. *)

val to_prometheus : unit -> string
(** Prometheus-style text exposition: counters and gauges as bare
    samples, histograms as summaries (quantile-labelled samples plus
    [_max]/[_sum]/[_count]) {e and} cumulative [_bucket{le="..."}]
    samples with full-precision edges. The bucket samples are what makes
    the text exposition lossless for a fleet scraper: exact per-bucket
    counts can be reconstructed from them and merged across processes
    with {!Metrics.merge_into} ([Lw_cluster.Fleet_view] does exactly
    that). Dots in metric names become underscores. *)
