(** The paper's cost arithmetic (§4, §5.2): scale a measured per-shard
    request time up to a fleet serving a full dataset, price it against
    AWS, and derive the per-user monthly bill.

    All the constants the paper uses are exposed so E4 can regenerate
    Table 2 exactly from the paper's measurements, and regenerate it again
    from {e our} measured OCaml rates to compare shapes. *)

(** {2 Machines and pricing} *)

type instance = { name : string; vcpus : int; price_per_hour : float }

val c5_large : instance
(** 2 vCPU, $0.085/h — the paper's machine. *)

(** {2 Per-shard microbenchmark numbers} *)

type shard = {
  shard_bytes : float; (** data served per shard; 1 GiB in the paper *)
  domain_bits : int; (** DPF output domain per shard; 22 in the paper *)
  request_seconds : float; (** one request's compute on one shard *)
  dpf_seconds : float; (** portion spent in DPF evaluation *)
  scan_seconds : float; (** portion spent scanning the data *)
}

val paper_shard : shard
(** 167 ms = 64 ms DPF + 103 ms scan over 1 GiB (§5.1). *)

val shard_of_measurement :
  ?shard_bytes:float -> ?domain_bits:int -> dpf_seconds:float -> scan_seconds:float -> unit -> shard
(** Build a shard model from measured rates (already scaled to the shard
    geometry). *)

(** {2 Datasets} *)

type dataset = { name : string; total_bytes : float; pages : float; avg_page_bytes : float }

val of_profile : Corpus.profile -> dataset

(** {2 Sharding policies} *)

type policy =
  | Storage_driven (** shards = ⌈bytes / shard_bytes⌉ — matches Table 2's C4 row *)
  | Domain_driven (** shards = ⌈pages / 2^domain_bits⌉ — matches Table 2's Wikipedia row *)

(** {2 The estimate} *)

type estimate = {
  dataset : string;
  shards : int;
  vcpu_seconds : float; (** system-wide (both logical servers, both vCPUs) *)
  request_cost_usd : float;
  upload_kib : float; (** client→servers, both DPF keys, paper formula *)
  download_kib : float; (** servers→client, two bucket shares *)
  total_comm_kib : float;
  latency_floor_s : float; (** batch-16 data-server latency lower bound *)
}

val estimate :
  ?policy:policy -> ?bucket_bytes:int -> ?batch:int -> dataset -> shard -> instance -> estimate
(** Defaults: [Storage_driven], 4 KiB buckets, batch 16 (latency floor =
    batch × request_seconds, the paper's 2.6 s). The communication model
    is the paper's: upload = 2 keys of [(λ+2)·d_total] bytes with λ = 128
    and [d_total = domain_bits + ⌈log2 shards⌉]; download = 2 buckets. *)

(** {2 The keyword column} *)

type keyword_estimate = {
  base : estimate; (** the single-probe index GET at the same point *)
  kw_vcpu_seconds : float;
  kw_request_cost_usd : float;
  kw_upload_kib : float; (** exactly 2× base: two DPF keys per server *)
  kw_download_kib : float; (** exactly 2× base: two bucket shares *)
  kw_total_comm_kib : float;
  compute_overhead : float;
      (** kw vCPU-s / base vCPU-s = (2·dpf + scan)/(dpf + scan) — strictly
          below 2 because the width-2 probe shares one batched scan pass *)
}

val keyword_estimate :
  ?policy:policy ->
  ?bucket_bytes:int ->
  ?batch:int ->
  dataset ->
  shard ->
  instance ->
  keyword_estimate
(** Cost of a wire-v4 keyword GET at the same operating point as
    {!estimate}: both cuckoo candidate buckets are probed as one width-2
    entry in a single batched scan, so compute pays 2× DPF evaluation but
    only 1× memory scan, while communication doubles exactly (the
    two-probe shape is fixed and query-independent). *)

val pp_keyword : Format.formatter -> keyword_estimate -> unit

(** {2 The three-way mode comparison}

    The same Table-2 columns — C1 compute (vCPU-s), C2 dollars per
    request, C3 communication, C4 latency floor — for each deployment
    model in {!Lightweb.Zltp_mode.all}, at one dataset / instance
    operating point. This is what makes the cost model three-way
    comparable: the trade-off the paper argues (non-collusion vs
    hardware trust vs a single cryptographic assumption) priced in one
    table. *)

type mode_cost = {
  mode : Lightweb.Zltp_mode.t;
  mc_servers : int;  (** logical servers a request touches (2, 1, 1) *)
  mc_shards : int;
  mc_vcpu_seconds : float;  (** C1: system-wide compute per request *)
  mc_request_cost_usd : float;  (** C2 *)
  mc_upload_kib : float;
  mc_download_kib : float;
  mc_total_comm_kib : float;  (** C3 *)
  mc_latency_floor_s : float;  (** C4: batch × per-shard request time *)
  mc_hint_mib_per_epoch : float;
      (** [Single] only: the per-epoch public hint, amortized over every
          client and query — reported beside C3, not folded into it *)
}

val three_way :
  ?policy:policy ->
  ?bucket_bytes:int ->
  ?batch:int ->
  ?single_slowdown:float ->
  dataset ->
  shard ->
  instance ->
  mode_cost list
(** One {!mode_cost} per mode, in {!Lightweb.Zltp_mode.all} order.
    [Pir2] reproduces {!estimate} exactly. [Single] re-shards the
    dataset at the LWE noise cap ({!Lw_pir.Spir.max_domain_bits});
    every shard answers every query (selection vector up, u32-per-row
    answer down), and a request is one multiply-accumulate pass modeled
    as the measured XOR scan slowed by [single_slowdown] (default 8;
    {!Fleet_sim} seeds it from the measured SPIR/XOR ratio). [Enclave]
    pays a tree-ORAM path — [2·domain_bits·Z] bucket reads (Z = 4) at the
    scan rate — on the one shard holding the index, with fixed-size
    encrypted communication. *)

val pp_mode_cost : Format.formatter -> mode_cost -> unit

(** {2 Update bandwidth (epoch-versioned storage)} *)

type update_estimate = {
  churn : float; (** fraction of buckets mutated per epoch *)
  dirty_buckets : float;
  expected_dirty_blocks : float;
  cow_bytes : float; (** copy-on-write publish cost, both replicas *)
  naive_bytes : float; (** full re-push of the database, both replicas *)
  cow_ratio : float; (** cow_bytes / naive_bytes *)
}

val update_estimate :
  ?bucket_bytes:int -> ?block_bytes:int -> churn:float -> dataset -> update_estimate
(** Bandwidth a publisher epoch costs under the CoW engine versus naively
    re-pushing the whole database to both PIR replicas. Blocks hold
    [block_bytes / bucket_bytes] buckets (defaults 4 KiB buckets, 256 KiB
    blocks, matching [Lw_store]); with uniform independent churn [c], a
    block is copied with probability [1 - (1-c)^buckets_per_block], so
    [expected_dirty_blocks = n_blocks · (1 - (1-c)^bpb)]. Bench E22
    measures the same ratio on the real engine. Raises [Invalid_argument]
    unless [0 <= churn <= 1]. *)

(** {2 §4 economics} *)

type user_profile = { pages_per_day : float; gets_per_page : int }

val paper_user : user_profile
(** 50 page requests/day, 5 data GETs each. *)

val monthly_user_cost : user_profile -> request_cost_usd:float -> float
(** 30-day month: pages/day × GETs/page × 30 × system-wide request cost.
    At the paper's C4 point: 50 · 5 · 30 · $0.002 = $15/month. *)

val fi_cost : bytes:float -> float
(** [bytes] at Google Fi's $10/GiB (§5.2's willingness-to-pay comparison). *)

val nytimes_homepage_bytes : float
(** 22.4 MiB. *)

(** {2 §5.2 "Looking forward"} *)

val projected_cost : years:float -> float -> float
(** [projected_cost ~years c] applies the historical 16×-per-5-years
    compute-cost decline to [c]. *)

val pp_estimate : Format.formatter -> estimate -> unit
