(* Closed-loop fleet simulation over the real serving stack: stand up a
   sharded front-end (Zltp_frontend over 2^shard_bits views of one store),
   replay a Zipf page mix (Workload/Zipf) as Poisson arrivals through the
   batch-service queueing discipline of Queue_sim, and *measure* every
   batch's service time by actually running the scan kernels — the
   arrivals and waits live on a virtual timeline, the service durations
   are wall-clock truth. Little's law (L = λW) ties the two together and
   is reported per operating point as a bookkeeping cross-check.

   Alongside the measurement the driver runs the two models this repo
   already has — Queue_sim with a service law fitted to the calibration,
   and Latency_model's straggler tail — plus Cost_model's Table-2
   arithmetic seeded from a 1-shard microbenchmark, so E24 can put
   measured numbers and the §4/§5.2 estimates side by side. *)

module Cost_model = Lw_sim.Cost_model
module Workload = Lw_sim.Workload

type params = {
  shard_bits : int; (* fleet = 2^shard_bits data shards *)
  domain_bits : int; (* global bucket domain *)
  bucket_size : int;
  batch_size : int;
  calib_batches : int; (* batches timed to calibrate the service law *)
  queries_per_point : int;
  load_fractions : float list; (* offered load as fraction of capacity *)
  batch_window_s : float option; (* None: one calibrated batch service *)
  page_exponent : float;
  key_pool : int; (* distinct pre-generated queries, cycled *)
  burst_k : int; (* 1 = independent visits; >1 = correlated search bursts *)
  straggler_sigma : float; (* Latency_model tail dispersion *)
  seed : string;
}

let default =
  {
    shard_bits = 6;
    domain_bits = 12;
    bucket_size = 1024;
    batch_size = 16;
    calib_batches = 6;
    queries_per_point = 192;
    load_fractions = [ 0.5; 0.9 ];
    batch_window_s = None;
    page_exponent = 1.0;
    key_pool = 96;
    burst_k = 1;
    straggler_sigma = 0.25;
    seed = "fleet-sim";
  }

type point = {
  fraction : float; (* of measured capacity *)
  offered_rps : float;
  offered : int;
  served : int;
  mean_sojourn_s : float;
  p50_s : float;
  p99_s : float;
  mean_batch_fill : float;
  utilization : float;
  mean_in_system : float; (* time-average N(t) from the event log *)
  littles_lambda_w : float; (* λ_eff · W̄ — must equal mean_in_system *)
  queue_model_p50_s : float; (* Queue_sim with the fitted service law *)
  queue_model_p95_s : float;
}

type model_line = {
  model_shards : int; (* Cost_model's shard count for this dataset *)
  model_request_s : float; (* 1-shard microbench: dpf + scan *)
  model_latency_floor_s : float; (* batch × request (Table 2 arithmetic) *)
  model_vcpu_s : float;
  model_request_cost_usd : float;
  measured_batch_service_s : float;
  measured_capacity_rps : float;
  floor_ratio : float; (* measured batch service / model floor *)
}

type result = {
  shards : int;
  db_bytes : int;
  service_batch_mean_s : float;
  service_batch_p99_s : float;
  fitted_scan_s : float; (* service(B) = scan + B·per_request fit *)
  fitted_per_request_s : float;
  capacity_rps : float;
  direct_single_s : float; (* one key, flat fan-out *)
  points : point list;
  fleet_hist : Lw_obs.Metrics.hist_snapshot; (* merged per-shard view *)
  tail_model : Latency_model.distribution;
  model : model_line;
  spir_hint_s : float; (* per-epoch hint over a shard-sized snapshot *)
  spir_answer_s : float; (* one masked-scan single-server answer *)
  spir_scan_ratio : float; (* per-byte SPIR mul-acc vs XOR scan *)
  three_way : Cost_model.mode_cost list; (* seeded from the ratio above *)
}

let time clock f =
  let t0 = Lw_obs.Clock.now clock in
  let r = f () in
  (r, Lw_obs.Clock.now clock -. t0)

(* The Zipf page mix: Workload's two-level (site, page) popularity model
   flattened onto the global bucket domain. With burst_k > 1 each visit
   becomes a correlated search burst (one site, burst_k possibly-repeated
   pages) laid out contiguously in the pool, so consecutive batch slots
   carry the non-independent index mix a cluster retrieval produces. *)
let pool_indices p rng =
  let domain = 1 lsl p.domain_bits in
  let sites = min 16 domain in
  let pages_per_site = max 1 (domain / sites) in
  let wl =
    {
      Workload.sites;
      pages_per_site;
      visits = (if p.burst_k <= 1 then p.key_pool else max 1 (p.key_pool / p.burst_k));
      mean_dwell_s = 1.0;
      site_exponent = 1.0;
      page_exponent = p.page_exponent;
    }
  in
  let flatten site page = ((site * pages_per_site) + page) mod domain in
  (if p.burst_k <= 1 then
     Workload.generate wl rng
     |> List.map (fun v -> flatten v.Workload.site v.Workload.page)
   else
     Workload.search_bursts ~burst_k:p.burst_k wl rng
     |> List.concat_map (fun b ->
            List.map (flatten b.Workload.burst_site) b.Workload.burst_pages))
  |> Array.of_list

(* One operating point: Poisson arrivals at [lambda], Queue_sim's
   batch-service discipline, service times measured on the live stack. *)
let run_point ~clock ~fe ~keys ~batch_size ~window_s ~lambda ~queries rng =
  let arrivals = Array.make queries 0. in
  let t = ref 0. in
  let draw () = -.log (max 1e-12 (Lw_util.Det_rng.float rng 1.0)) /. lambda in
  for i = 0 to queries - 1 do
    t := !t +. draw ();
    arrivals.(i) <- !t
  done;
  let i = ref 0 in
  let pending = Queue.create () in
  let server_free = ref 0. in
  let busy = ref 0. in
  let sojourns = ref [] in
  let departures = ref [] in
  let served = ref 0 and batches = ref 0 in
  let next_key = ref 0 in
  while !i < queries || not (Queue.is_empty pending) do
    if Queue.is_empty pending then begin
      Queue.push arrivals.(!i) pending;
      incr i
    end
    else begin
      let first = Queue.peek pending in
      let rec settle () =
        let start_candidate =
          if Queue.length pending >= batch_size then Float.max !server_free first
          else Float.max !server_free (first +. window_s)
        in
        if !i < queries && arrivals.(!i) <= start_candidate then begin
          Queue.push arrivals.(!i) pending;
          incr i;
          settle ()
        end
        else start_candidate
      in
      let t_start = settle () in
      let take = min batch_size (Queue.length pending) in
      let batch = Array.init take (fun j -> keys.((!next_key + j) mod Array.length keys)) in
      next_key := (!next_key + take) mod Array.length keys;
      let _shares, service = time clock (fun () -> Lightweb.Zltp_frontend.answer_batch fe batch) in
      let t_done = t_start +. service in
      for _ = 1 to take do
        let a = Queue.pop pending in
        sojourns := (t_done -. a) :: !sojourns;
        departures := t_done :: !departures;
        incr served
      done;
      incr batches;
      busy := !busy +. service;
      server_free := t_done
    end
  done;
  let sojourns = Array.of_list !sojourns in
  let horizon = List.fold_left Float.max 0. !departures in
  (* time-average number in system from the arrival/departure event log *)
  let events =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (Array.to_list (Array.map (fun a -> (a, 1)) arrivals)
      @ List.map (fun d -> (d, -1)) !departures)
  in
  let area = ref 0. and level = ref 0 and last_t = ref 0. in
  List.iter
    (fun (te, delta) ->
      area := !area +. (float_of_int !level *. (te -. !last_t));
      last_t := te;
      level := !level + delta)
    events;
  let s = Lw_util.Stats.summarize sojourns in
  let mean_in_system = if horizon > 0. then !area /. horizon else 0. in
  let lambda_eff = if horizon > 0. then float_of_int !served /. horizon else 0. in
  ( {
      fraction = 0.;
      offered_rps = lambda;
      offered = queries;
      served = !served;
      mean_sojourn_s = s.Lw_util.Stats.mean;
      p50_s = s.Lw_util.Stats.p50;
      p99_s = s.Lw_util.Stats.p99;
      mean_batch_fill =
        (if !batches = 0 then 0. else float_of_int !served /. float_of_int !batches);
      utilization = (if !server_free > 0. then !busy /. !server_free else 0.);
      mean_in_system;
      littles_lambda_w = lambda_eff *. s.Lw_util.Stats.mean;
      queue_model_p50_s = 0.;
      queue_model_p95_s = 0.;
    },
    horizon )

let median3 clock f =
  let run () = snd (time clock f) in
  let a = run () and b = run () and c = run () in
  let xs = [| a; b; c |] in
  Array.sort Float.compare xs;
  xs.(1)

let run ?(progress = fun (_ : string) -> ()) p =
  if p.batch_size < 1 then invalid_arg "Fleet_sim.run: batch_size must be >= 1";
  if p.queries_per_point < 1 then invalid_arg "Fleet_sim.run: queries_per_point must be >= 1";
  if p.load_fractions = [] then invalid_arg "Fleet_sim.run: need at least one load fraction";
  let clock = Lw_obs.Span.clock () in
  let rng = Lw_util.Det_rng.of_string_seed p.seed in
  let drbg = Lw_crypto.Drbg.create ~seed:("fleet-sim-keys:" ^ p.seed) in
  (* the fleet: a real sharded front-end over the views of one randomized
     store epoch *)
  let store = Lw_store.create ~domain_bits:p.domain_bits ~bucket_size:p.bucket_size () in
  let w = Lw_store.writer store in
  Lw_store.Writer.fill_random w rng;
  let snap = Lw_store.Writer.seal w in
  let fe = Lightweb.Zltp_frontend.of_store store ~shard_bits:p.shard_bits in
  let shards = Lightweb.Zltp_frontend.shard_count fe in
  let db_bytes = (1 lsl p.domain_bits) * p.bucket_size in
  progress (Printf.sprintf "fleet: %d shards, %d KiB database" shards (db_bytes / 1024));
  (* the query mix: Zipf page popularity over the bucket domain *)
  let indices = pool_indices p rng in
  let pairs =
    Array.map (fun alpha -> Lw_dpf.Dpf.gen ~domain_bits:p.domain_bits ~alpha drbg) indices
  in
  let keys = Array.map fst pairs in
  (* correctness spot-check: both parties' shares must XOR to the bucket,
     through the full sharded (and possibly parallel) stack *)
  let check_at i =
    let k0, k1 = pairs.(i) in
    let share0 = Lightweb.Zltp_frontend.answer fe k0 in
    let share1 = Lightweb.Zltp_frontend.answer fe k1 in
    let got = Lw_util.Xorbuf.xor share0 share1 in
    if got <> Lw_store.Snapshot.get snap indices.(i) then
      failwith "Fleet_sim: share XOR does not reconstruct the bucket"
  in
  check_at 0;
  check_at (Array.length pairs - 1);
  (* calibrate the batch service law *)
  let calib_batch n =
    Array.init n (fun j -> keys.(j mod Array.length keys))
  in
  let batch_times =
    Array.init (max 1 p.calib_batches) (fun _ ->
        snd (time clock (fun () -> Lightweb.Zltp_frontend.answer_batch fe (calib_batch p.batch_size))))
  in
  let bstats = Lw_util.Stats.summarize batch_times in
  let service_batch_mean_s = bstats.Lw_util.Stats.mean in
  let single_batch_s =
    let ts =
      Array.init (max 1 p.calib_batches) (fun _ ->
          snd (time clock (fun () -> Lightweb.Zltp_frontend.answer_batch fe (calib_batch 1))))
    in
    (Lw_util.Stats.summarize ts).Lw_util.Stats.mean
  in
  (* fit service(B) = scan + B·per_request to the two calibrated sizes *)
  let fitted_per_request_s =
    if p.batch_size > 1 then
      Float.max 1e-9 ((service_batch_mean_s -. single_batch_s) /. float_of_int (p.batch_size - 1))
    else Float.max 1e-9 single_batch_s
  in
  let fitted_scan_s = Float.max 0. (single_batch_s -. fitted_per_request_s) in
  let capacity_rps = float_of_int p.batch_size /. service_batch_mean_s in
  let window_s = Option.value p.batch_window_s ~default:service_batch_mean_s in
  progress
    (Printf.sprintf "calibrated: batch-%d service %.3f ms, capacity %.1f req/s" p.batch_size
       (service_batch_mean_s *. 1e3) capacity_rps);
  (* single-query latency *)
  let probe = keys.(0) in
  let direct_single_s = median3 clock (fun () -> ignore (Lightweb.Zltp_frontend.answer fe probe)) in
  (* the operating points *)
  let points =
    List.map
      (fun fraction ->
        let lambda = Float.max 1e-6 (fraction *. capacity_rps) in
        progress (Printf.sprintf "load %.2f: %.1f req/s offered" fraction lambda);
        let pt, _horizon =
          run_point ~clock ~fe ~keys ~batch_size:p.batch_size ~window_s ~lambda
            ~queries:p.queries_per_point rng
        in
        (* the same operating point through Queue_sim's analytic-fit model *)
        let qp =
          {
            Queue_sim.arrival_rps = lambda;
            batch_size = p.batch_size;
            batch_window_s = window_s;
            scan_s = fitted_scan_s;
            per_request_s = fitted_per_request_s;
            duration_s = float_of_int p.queries_per_point /. lambda;
          }
        in
        let qr = Queue_sim.run qp (Lw_util.Det_rng.of_string_seed (p.seed ^ "-queue-model")) in
        {
          pt with
          fraction;
          queue_model_p50_s = qr.Queue_sim.p50_latency_s;
          queue_model_p95_s = qr.Queue_sim.p95_latency_s;
        })
      p.load_fractions
  in
  (* merged per-shard latency view (Histogram merge satellite) *)
  let fleet = Lw_obs.Metrics.scratch_histogram () in
  Array.iter
    (fun h -> Lw_obs.Metrics.merge_into ~into:fleet h)
    (Lightweb.Zltp_frontend.shard_histograms fe);
  let fleet_hist = Lw_obs.Metrics.snapshot_hist fleet in
  (* straggler-tail model for the same fleet shape *)
  let tail_model =
    Latency_model.simulate ~samples:500
      {
        Latency_model.shards;
        base_shard_s = Float.max 1e-9 (direct_single_s /. float_of_int shards);
        straggler_sigma = p.straggler_sigma;
        batch_window_s = window_s;
        rtt_s = 0.;
        frontend_s = 0.;
        gets_per_page = 1;
        parallel_gets = true;
      }
      ~code_fetch:false rng
  in
  (* Cost_model Table-2 arithmetic seeded from a 1-shard microbenchmark *)
  let rem = p.domain_bits - p.shard_bits in
  let shard0_alpha = indices.(0) land ((1 lsl rem) - 1) in
  let sk, _ = Lw_dpf.Dpf.gen ~domain_bits:rem ~alpha:shard0_alpha drbg in
  (* time eval and scan phases separately on shard 0's view *)
  let shard0 = Lw_pir.Server.of_snapshot (Lw_store.Snapshot.sub snap ~base:0 ~domain_bits:rem) in
  let bits, dpf_seconds = time clock (fun () -> Lw_pir.Server.eval_bits shard0 sk) in
  let _, scan_seconds = time clock (fun () -> Lw_pir.Server.scan shard0 bits) in
  let per_shard_bytes = float_of_int ((1 lsl rem) * p.bucket_size) in
  let mshard =
    Cost_model.shard_of_measurement ~shard_bytes:per_shard_bytes ~domain_bits:rem
      ~dpf_seconds:(Float.max 1e-9 dpf_seconds) ~scan_seconds:(Float.max 1e-9 scan_seconds) ()
  in
  let ds =
    {
      Cost_model.name = "fleet-sim";
      total_bytes = float_of_int db_bytes;
      pages = float_of_int (1 lsl p.domain_bits);
      avg_page_bytes = float_of_int p.bucket_size;
    }
  in
  let est =
    Cost_model.estimate ~policy:Cost_model.Storage_driven ~bucket_bytes:p.bucket_size
      ~batch:p.batch_size ds mshard Cost_model.c5_large
  in
  (* SPIR probe: the same shard data served by the single-server backend.
     Time the per-epoch hint and one masked-scan answer over a sealed
     shard-sized snapshot, and turn the answer into a per-byte
     multiply-accumulate vs XOR-scan slowdown — the measured number that
     seeds the three-way cost table's Single column. *)
  let spir_bits = min rem Lw_pir.Spir.max_domain_bits in
  let spir_snap =
    let st =
      (* a 16-byte key from a seed of any length *)
      Lw_store.create
        ~hash_key:(String.sub (Lw_crypto.Sha256.digest (p.seed ^ "-spir")) 0 16)
        ~block_bytes:(8 * p.bucket_size) ~domain_bits:spir_bits ~bucket_size:p.bucket_size ()
    in
    let w = Lw_store.writer st in
    for i = 0 to (1 lsl spir_bits) - 1 do
      Lw_store.Writer.set w i (Printf.sprintf "spir-probe-%d" i)
    done;
    Lw_store.Writer.seal w
  in
  let hint_ser, spir_hint_s =
    time clock (fun () -> Lw_pir.Spir.hint_of_snapshot Lw_pir.Spir.default_params spir_snap)
  in
  let spir_hint =
    match Lw_pir.Spir.decode_hint hint_ser with
    | Ok h -> h
    | Error e -> failwith ("fleet-sim: SPIR hint failed to decode: " ^ e)
  in
  (* lw-lint: allow taint lines=5 *)
  let _secret, spir_query =
    Lw_pir.Spir.Client.query spir_hint ~domain_bits:spir_bits ~index:shard0_alpha drbg
  in
  let spir_answer_s =
    median3 clock (fun () -> ignore (Lw_pir.Spir.answer spir_snap spir_query))
  in
  let spir_scan_ratio =
    let spir_bytes = float_of_int ((1 lsl spir_bits) * p.bucket_size) in
    let xor_per_byte = Float.max 1e-12 (scan_seconds /. per_shard_bytes) in
    spir_answer_s /. spir_bytes /. xor_per_byte
  in
  let three_way =
    Cost_model.three_way ~policy:Cost_model.Storage_driven ~bucket_bytes:p.bucket_size
      ~batch:p.batch_size
      ~single_slowdown:(Float.max 1. spir_scan_ratio)
      ds mshard Cost_model.c5_large
  in
  let model =
    {
      model_shards = est.Cost_model.shards;
      model_request_s = mshard.Cost_model.request_seconds;
      model_latency_floor_s = est.Cost_model.latency_floor_s;
      model_vcpu_s = est.Cost_model.vcpu_seconds;
      model_request_cost_usd = est.Cost_model.request_cost_usd;
      measured_batch_service_s = service_batch_mean_s;
      measured_capacity_rps = capacity_rps;
      floor_ratio =
        (if est.Cost_model.latency_floor_s > 0. then
           service_batch_mean_s /. est.Cost_model.latency_floor_s
         else 0.);
    }
  in
  {
    shards;
    db_bytes;
    service_batch_mean_s;
    service_batch_p99_s = bstats.Lw_util.Stats.p99;
    fitted_scan_s;
    fitted_per_request_s;
    capacity_rps;
    direct_single_s;
    points;
    fleet_hist;
    tail_model;
    model;
    spir_hint_s;
    spir_answer_s;
    spir_scan_ratio;
    three_way;
  }
