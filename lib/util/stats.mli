(** Summary statistics for benchmark and simulation results. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : float array -> summary
(** [summarize xs] computes the summary of a non-empty sample. Raises
    [Invalid_argument] on an empty array. *)

val mean : float array -> float
val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] is the [p]-th percentile ([0. <= p <= 100.]) using
    linear interpolation on the sorted sample. *)
