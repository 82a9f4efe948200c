(** Fleet-wide metric totals from per-process snapshots.

    The supervisor scrapes every shard process over the control channel
    ([Ctl.Scrape], answered with the shard's {!Lw_obs.Metrics.snapshot})
    and {!add}s each reply here, its own snapshot too. Counters add
    exactly. Histograms add bucket counts by index, count and sum, and
    take the largest max, as {!Lw_obs.Metrics.merge_into} does, so the
    fleet histogram is exactly the one a single process observing every
    sample would hold. Gauges are one process's reading and are not
    folded. *)

type t

val create : unit -> t

val add : t -> Lw_obs.Metrics.snapshot_item list -> unit
(** Fold one process's snapshot into the view. *)

val sources : t -> int
(** Number of {!add}s. *)

val counter : t -> string -> int
(** Summed across every source; [0] when the series was never seen. *)

val histogram : t -> string -> Lw_obs.Metrics.hist_snapshot option
(** The merged fleet histogram: exact bucket counts, count, sum and
    max; quantiles to one bucket, as {!Lw_obs.Metrics.snapshot_hist}
    estimates them. *)
