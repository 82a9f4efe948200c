(** Monte-Carlo page-load latency for a sharded ZLTP fleet.

    The paper lower-bounds request latency by the 2.6 s batch window and
    notes the real number "would likely be higher due to network latency,
    front-end server latency, and data-server stragglers" (§5.2). This
    model quantifies that sentence: a private-GET must wait for {e every}
    shard (an XOR barrier over [shards] machines), so its compute time is
    the {e maximum} of [shards] straggler-inflated draws — the classic
    tail-at-scale effect — plus batch queueing and round trips; a page is
    one optional code fetch plus [gets_per_page] data fetches. *)

type params = {
  shards : int;
  base_shard_s : float; (** per-request compute on a well-behaved shard *)
  straggler_sigma : float; (** log-normal dispersion of shard times *)
  batch_window_s : float; (** a request waits Uniform(0, window) to join a batch *)
  rtt_s : float; (** client <-> front-end round trip *)
  frontend_s : float; (** key split + response combine *)
  gets_per_page : int;
  parallel_gets : bool; (** true: the k GETs ride one batch; false: sequential *)
}

val paper_params : params
(** 305 shards, 167 ms base, 2.6 s batch window, 40 ms RTT, 5 parallel
    GETs, moderate stragglers (sigma 0.25). *)

type distribution = {
  mean_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  min_s : float;
  max_s : float;
}

val page_load : params -> code_fetch:bool -> Lw_util.Det_rng.t -> float

val simulate :
  ?samples:int -> params -> code_fetch:bool -> Lw_util.Det_rng.t -> distribution
(** Default 2000 samples. *)
