type instance = { name : string; vcpus : int; price_per_hour : float }

let c5_large = { name = "c5.large"; vcpus = 2; price_per_hour = 0.085 }

type shard = {
  shard_bytes : float;
  domain_bits : int;
  request_seconds : float;
  dpf_seconds : float;
  scan_seconds : float;
}

let gib = 1073741824.

let paper_shard =
  {
    shard_bytes = gib;
    domain_bits = 22;
    request_seconds = 0.167;
    dpf_seconds = 0.064;
    scan_seconds = 0.103;
  }

let shard_of_measurement ?(shard_bytes = gib) ?(domain_bits = 22) ~dpf_seconds ~scan_seconds () =
  {
    shard_bytes;
    domain_bits;
    request_seconds = dpf_seconds +. scan_seconds;
    dpf_seconds;
    scan_seconds;
  }

type dataset = { name : string; total_bytes : float; pages : float; avg_page_bytes : float }

let of_profile (p : Corpus.profile) =
  {
    name = p.Corpus.name;
    total_bytes = p.Corpus.total_bytes;
    pages = p.Corpus.pages;
    avg_page_bytes = p.Corpus.avg_page_bytes;
  }

type policy = Storage_driven | Domain_driven

let shard_count policy ds shard =
  let count =
    match policy with
    | Storage_driven -> ds.total_bytes /. shard.shard_bytes
    | Domain_driven -> ds.pages /. float_of_int (1 lsl shard.domain_bits)
  in
  max 1 (int_of_float (Float.ceil count))

type estimate = {
  dataset : string;
  shards : int;
  vcpu_seconds : float;
  request_cost_usd : float;
  upload_kib : float;
  download_kib : float;
  total_comm_kib : float;
  latency_floor_s : float;
}

let lambda_bits = 128
let servers = 2 (* two-server PIR: every request is answered twice *)

let paper_key_bytes ~d_total = float_of_int ((lambda_bits + 2) * d_total)

let estimate ?(policy = Storage_driven) ?(bucket_bytes = 4096) ?(batch = 16) ds shard inst =
  let shards = shard_count policy ds shard in
  (* instance-seconds on one logical server, all shards working one request *)
  let instance_seconds = float_of_int shards *. shard.request_seconds in
  let vcpu_seconds = instance_seconds *. float_of_int inst.vcpus *. float_of_int servers in
  let request_cost_usd =
    instance_seconds /. 3600. *. inst.price_per_hour *. float_of_int servers
  in
  let d_total = shard.domain_bits + Lw_util.Bitops.log2_ceil shards in
  let upload = float_of_int servers *. paper_key_bytes ~d_total in
  let download = float_of_int (servers * bucket_bytes) in
  {
    dataset = ds.name;
    shards;
    vcpu_seconds;
    request_cost_usd;
    upload_kib = upload /. 1024.;
    download_kib = download /. 1024.;
    total_comm_kib = (upload +. download) /. 1024.;
    latency_floor_s = float_of_int batch *. shard.request_seconds;
  }

type keyword_estimate = {
  base : estimate; (* the single-probe index GET at the same point *)
  kw_vcpu_seconds : float;
  kw_request_cost_usd : float;
  kw_upload_kib : float;
  kw_download_kib : float;
  kw_total_comm_kib : float;
  compute_overhead : float; (* kw vCPU-s / base vCPU-s *)
}

let keyword_estimate ?policy ?bucket_bytes ?batch ds shard inst =
  let base = estimate ?policy ?bucket_bytes ?batch ds shard inst in
  (* A keyword GET is two DPF probes riding ONE batched scan pass
     (Server.answer_batch runs both as one two-lane scan): per shard it
     costs 2×dpf_seconds of key evaluation but only 1×scan_seconds of
     memory traffic, versus dpf + scan for the plain index GET. *)
  let kw_request_seconds = (2. *. shard.dpf_seconds) +. shard.scan_seconds in
  let instance_seconds = float_of_int base.shards *. kw_request_seconds in
  let kw_vcpu_seconds = instance_seconds *. float_of_int inst.vcpus *. float_of_int servers in
  let kw_request_cost_usd =
    instance_seconds /. 3600. *. inst.price_per_hour *. float_of_int servers
  in
  (* Communication doubles exactly: two keys up, two bucket shares down,
     per logical server — the shape is fixed even when the cuckoo
     candidates coincide, so the factor is query-independent. *)
  let kw_upload_kib = 2. *. base.upload_kib in
  let kw_download_kib = 2. *. base.download_kib in
  {
    base;
    kw_vcpu_seconds;
    kw_request_cost_usd;
    kw_upload_kib;
    kw_download_kib;
    kw_total_comm_kib = kw_upload_kib +. kw_download_kib;
    compute_overhead =
      (if base.vcpu_seconds > 0. then kw_vcpu_seconds /. base.vcpu_seconds else 0.);
  }

(* ------------------------------------------------------------------ *)
(* Three-way mode comparison: the same Table-2 columns (C1 compute,
   C2 dollars, C3 communication, C4 latency floor) for each deployment
   model in Zltp_mode.all, at one dataset/instance operating point.   *)

type mode_cost = {
  mode : Lightweb.Zltp_mode.t;
  mc_servers : int;
  mc_shards : int;
  mc_vcpu_seconds : float;
  mc_request_cost_usd : float;
  mc_upload_kib : float;
  mc_download_kib : float;
  mc_total_comm_kib : float;
  mc_latency_floor_s : float;
  mc_hint_mib_per_epoch : float;
}

let three_way ?(policy = Storage_driven) ?(bucket_bytes = 4096) ?(batch = 16)
    ?(single_slowdown = 8.) ?(spir_n = Lw_pir.Spir.default_params.Lw_pir.Spir.n) ?(oram_z = 4) ds
    shard inst =
  (* Bytes/second the measured shard streams its data at (XOR scan). *)
  let scan_rate = shard.shard_bytes /. Float.max 1e-9 shard.scan_seconds in
  let fleet_cost ~servers ~shards ~request_seconds ~upload_bytes ~download_bytes
      ~hint_bytes_per_epoch mode =
    let instance_seconds = float_of_int shards *. request_seconds in
    {
      mode;
      mc_servers = servers;
      mc_shards = shards;
      mc_vcpu_seconds = instance_seconds *. float_of_int inst.vcpus *. float_of_int servers;
      mc_request_cost_usd =
        instance_seconds /. 3600. *. inst.price_per_hour *. float_of_int servers;
      mc_upload_kib = upload_bytes /. 1024.;
      mc_download_kib = download_bytes /. 1024.;
      mc_total_comm_kib = (upload_bytes +. download_bytes) /. 1024.;
      mc_latency_floor_s = float_of_int batch *. request_seconds;
      mc_hint_mib_per_epoch = hint_bytes_per_epoch /. (1024. *. 1024.);
    }
  in
  let pir2 =
    let e = estimate ~policy ~bucket_bytes ~batch ds shard inst in
    fleet_cost ~servers ~shards:e.shards ~request_seconds:shard.request_seconds
      ~upload_bytes:(e.upload_kib *. 1024.)
      ~download_bytes:(e.download_kib *. 1024.)
      ~hint_bytes_per_epoch:0. Lightweb.Zltp_mode.Pir2
  in
  let single =
    (* The LWE noise budget caps a Single shard at max_domain_bits, so the
       same dataset fragments into more, smaller shards; obliviousness
       means every shard answers every query (selection vector up, one
       u32-per-row answer down, from each). One server, no DPF eval: a
       request is one multiply-accumulate pass over the shard, modeled as
       the measured XOR scan slowed by [single_slowdown]. The per-epoch
       hint is amortized over all queries and reported beside C3, not in
       it. *)
    let db = min shard.domain_bits Lw_pir.Spir.max_domain_bits in
    let pages_per_shard = float_of_int (1 lsl db) in
    let shard_bytes = pages_per_shard *. float_of_int bucket_bytes in
    let shards =
      let count =
        match policy with
        | Storage_driven -> ds.total_bytes /. shard_bytes
        | Domain_driven -> ds.pages /. pages_per_shard
      in
      max 1 (int_of_float (Float.ceil count))
    in
    let request_seconds = shard_bytes /. scan_rate *. single_slowdown in
    let fshards = float_of_int shards in
    let upload_bytes = fshards *. float_of_int (Lw_pir.Spir.query_bytes ~domain_bits:db) in
    let download_bytes = fshards *. float_of_int (12 + (4 * bucket_bytes)) in
    let hint_bytes_per_epoch =
      fshards
      *. float_of_int
           (Lw_pir.Spir.hint_bytes { Lw_pir.Spir.n = spir_n } ~bucket_size:bucket_bytes)
    in
    fleet_cost ~servers:1 ~shards ~request_seconds ~upload_bytes ~download_bytes
      ~hint_bytes_per_epoch Lightweb.Zltp_mode.Single
  in
  let enclave =
    (* One trusted machine per shard; a GET is a tree-ORAM path — about
       2·⌈log2 pages⌉ node reads of Z buckets each — at the measured scan
       rate, on the one shard holding the index (the enclave hides which
       bucket within the shard; shard routing rides the same frontend
       fan-out as the other modes). Communication is a fixed-size
       encrypted request up and one encrypted bucket down. *)
    let shards = shard_count policy ds shard in
    let path_nodes = 2 * max 1 shard.domain_bits * oram_z in
    let path_bytes = float_of_int (path_nodes * bucket_bytes) in
    let request_seconds = path_bytes /. scan_rate in
    let mc =
      fleet_cost ~servers:1 ~shards:1 ~request_seconds ~upload_bytes:64.
        ~download_bytes:(float_of_int (bucket_bytes + 32))
        ~hint_bytes_per_epoch:0. Lightweb.Zltp_mode.Enclave
    in
    { mc with mc_shards = shards }
  in
  List.map
    (function
      | Lightweb.Zltp_mode.Single -> single
      | Lightweb.Zltp_mode.Pir2 -> pir2
      | Lightweb.Zltp_mode.Enclave -> enclave)
    Lightweb.Zltp_mode.all

let pp_mode_cost fmt m =
  Format.fprintf fmt
    "%-7s servers=%d shards=%-5d vCPU-s=%-9.4f cost=$%-9.6f up=%.1fKiB down=%.1fKiB comm=%.1fKiB latency>=%.3fs%s"
    (Lightweb.Zltp_mode.name m.mode)
    m.mc_servers m.mc_shards m.mc_vcpu_seconds m.mc_request_cost_usd m.mc_upload_kib
    m.mc_download_kib m.mc_total_comm_kib m.mc_latency_floor_s
    (if m.mc_hint_mib_per_epoch > 0. then
       Printf.sprintf " hint=%.1fMiB/epoch" m.mc_hint_mib_per_epoch
     else "")

type update_estimate = {
  churn : float;
  dirty_buckets : float;
  expected_dirty_blocks : float;
  cow_bytes : float;
  naive_bytes : float;
  cow_ratio : float;
}

let update_estimate ?(bucket_bytes = 4096) ?(block_bytes = 262144) ~churn ds =
  if churn < 0. || churn > 1. then invalid_arg "update_estimate: churn must be in [0,1]";
  let n_buckets = Float.max 1. (Float.ceil (ds.total_bytes /. float_of_int bucket_bytes)) in
  let buckets_per_block =
    float_of_int (max 1 (block_bytes / max 1 bucket_bytes))
  in
  let n_blocks = Float.max 1. (Float.ceil (n_buckets /. buckets_per_block)) in
  (* a block is copied iff at least one of its buckets churned; with
     uniform independent churn that is 1 - (1-churn)^buckets_per_block *)
  let p_block_dirty = 1. -. Float.pow (1. -. churn) buckets_per_block in
  let expected_dirty_blocks = n_blocks *. p_block_dirty in
  let per_replica_cow = expected_dirty_blocks *. float_of_int block_bytes in
  let cow_bytes = per_replica_cow *. float_of_int servers in
  let naive_bytes = ds.total_bytes *. float_of_int servers in
  {
    churn;
    dirty_buckets = n_buckets *. churn;
    expected_dirty_blocks;
    cow_bytes;
    naive_bytes;
    cow_ratio = (if naive_bytes > 0. then cow_bytes /. naive_bytes else 0.);
  }

type user_profile = { pages_per_day : float; gets_per_page : int }

let paper_user = { pages_per_day = 50.; gets_per_page = 5 }

let monthly_user_cost u ~request_cost_usd =
  u.pages_per_day *. float_of_int u.gets_per_page *. 30. *. request_cost_usd

let google_fi_usd_per_gib = 10.
let fi_cost ~bytes = bytes /. gib *. google_fi_usd_per_gib
let nytimes_homepage_bytes = 22.4 *. 1024. *. 1024.

let projected_cost ~years c = c /. Float.pow 16. (years /. 5.)

let pp_keyword fmt k =
  Format.fprintf fmt
    "%-10s keyword: vCPU-s=%-7.1f cost=$%.4f up=%.1fKiB down=%.1fKiB comm=%.1fKiB compute-overhead=%.2fx"
    k.base.dataset k.kw_vcpu_seconds k.kw_request_cost_usd k.kw_upload_kib k.kw_download_kib
    k.kw_total_comm_kib k.compute_overhead

let pp_estimate fmt e =
  Format.fprintf fmt
    "%-10s shards=%-4d vCPU-s=%-7.1f cost=$%.4f up=%.1fKiB down=%.1fKiB comm=%.1fKiB latency>=%.2fs"
    e.dataset e.shards e.vcpu_seconds e.request_cost_usd e.upload_kib e.download_kib
    e.total_comm_kib e.latency_floor_s
