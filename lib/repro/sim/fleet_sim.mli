(** Closed-loop fleet simulation over the {e real} serving stack (bench
    E24): a sharded {!Zltp_frontend} of [2^shard_bits] data shards
    answers a Zipf page mix ({!Workload}/{!Zipf}) arriving as a Poisson
    stream through {!Queue_sim}'s batch-service discipline — but where
    {!Queue_sim} plugs an analytic service law into the event loop, this
    driver {e measures} each batch's service time by running the scan
    kernels (fused, batched, optionally domain-parallel, optionally
    through the fan-out tree). Arrivals and waits live on a virtual
    timeline; service durations are wall-clock truth; Little's law
    (L = λW) is reported per operating point as a bookkeeping
    cross-check.

    The result also carries the three models this repo already has —
    {!Queue_sim} with a fitted service law, {!Latency_model}'s straggler
    tail, and {!Cost_model}'s Table-2 arithmetic seeded from a 1-shard
    microbenchmark — so the bench can put measurement and estimate side
    by side (the "validate or falsify Table 2" row of EXPERIMENTS.md). *)

type params = {
  shard_bits : int;  (** fleet = [2^shard_bits] data shards *)
  domain_bits : int;  (** global bucket domain *)
  bucket_size : int;
  batch_size : int;
  calib_batches : int;  (** batches timed to calibrate the service law *)
  queries_per_point : int;
  load_fractions : float list;  (** offered load as fraction of measured capacity *)
  batch_window_s : float option;  (** [None]: one calibrated batch service time *)
  page_exponent : float;
  scan_domains : int;  (** per-shard scan workers ({!Lightweb.Zltp_frontend.set_scan_domains}) *)
  tree_fanout_bits : int option;  (** fan-out tree for the single-key probe *)
  key_pool : int;  (** distinct pre-generated queries, cycled *)
  burst_k : int;
      (** [1]: independent Zipf visits (the historical mix). [> 1]: the
          pool is built from {!Workload.search_bursts} — runs of [burst_k]
          correlated, possibly-repeated indices per visited site, the
          traffic shape of a cluster retrieval served as keyword GETs *)
  straggler_sigma : float;  (** {!Latency_model} tail dispersion *)
  seed : string;
}

val default : params
(** 64 shards over a 4 MiB database, batch 16, load 0.5 and 0.9. *)

val smoke : params
(** Tiny deterministic-geometry variant for the [@fleet] CI alias:
    16 shards, 32 KiB database, 24 queries per point (one point past
    saturation to exercise the queue-growth path). *)

type point = {
  fraction : float;  (** of measured capacity *)
  offered_rps : float;
  offered : int;
  served : int;
  mean_sojourn_s : float;
  p50_s : float;
  p99_s : float;
  mean_batch_fill : float;
  utilization : float;
  mean_in_system : float;  (** time-average N(t) from the event log *)
  littles_lambda_w : float;  (** λ_eff · W̄ — equals [mean_in_system] up to float error *)
  queue_model_p50_s : float;  (** {!Queue_sim} at the same point, fitted service law *)
  queue_model_p95_s : float;
}

type model_line = {
  model_shards : int;  (** {!Cost_model}'s shard count for this dataset *)
  model_request_s : float;  (** 1-shard microbench: dpf + scan seconds *)
  model_latency_floor_s : float;  (** batch × request — the Table-2 floor *)
  model_vcpu_s : float;
  model_request_cost_usd : float;
  measured_batch_service_s : float;
  measured_capacity_rps : float;
  floor_ratio : float;
      (** measured batch service / model floor: < 1 means the
          batch kernel beats the naive batch × request arithmetic (scan
          amortization the Table-2 floor does not credit) *)
}

type result = {
  shards : int;
  domains : int;
  db_bytes : int;
  service_batch_mean_s : float;
  service_batch_p99_s : float;
  fitted_scan_s : float;  (** service(B) = scan + B·per_request fit *)
  fitted_per_request_s : float;
  capacity_rps : float;
  direct_single_s : float;  (** one key, flat fan-out *)
  tree_single_s : float;  (** one key through the fan-out tree *)
  tree_depth : int;
  tree_nodes : int;
  points : point list;
  fleet_hist : Lw_obs.Metrics.hist_snapshot;
      (** every shard's answer-latency histogram folded into one view via
          {!Lw_obs.Metrics.merge_into} *)
  tail_model : Latency_model.distribution;
  model : model_line;
  spir_hint_s : float;
      (** per-epoch {!Lw_pir.Spir} hint over a sealed shard-sized snapshot *)
  spir_answer_s : float;  (** one masked-scan single-server answer *)
  spir_scan_ratio : float;
      (** per-byte SPIR multiply-accumulate vs XOR-scan slowdown — the
          measured number that seeds the three-way table's Single column *)
  three_way : Lw_sim.Cost_model.mode_cost list;
      (** {!Cost_model.three_way} at the fleet geometry, [single_slowdown]
          seeded from [spir_scan_ratio] *)
}

val run : ?progress:(string -> unit) -> params -> result
(** Build the fleet, spot-check share reconstruction end to end, calibrate
    the service law, run every operating point, and assemble the models.
    Raises [Invalid_argument] on nonsensical parameters and [Failure] if
    the two parties' shares stop reconstructing database buckets. *)
