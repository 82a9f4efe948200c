(** The metrics registry as text. *)

val to_prometheus : unit -> string
(** Prometheus-style text exposition: counters and gauges as bare
    samples, histograms as summaries (quantile-labelled samples plus
    [_max]/[_sum]/[_count]). Dots in metric names become underscores. *)
