open Lw_sim
open Lw_repro

let det = Lw_util.Det_rng.of_string_seed

(* ---------------- Zipf ---------------- *)

let test_zipf_distribution () =
  let z = Zipf.create ~n:10 () in
  let rng = det "zipf" in
  let counts = Array.make 10 0 in
  let samples = 20000 in
  for _ = 1 to samples do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 beats rank 9 by ~10x under exponent 1 *)
  Alcotest.(check bool) "head heavy" true (counts.(0) > 5 * counts.(9));
  (* empirical frequencies track the analytic pmf, 1/(k+1) over the 10th
     harmonic number, within 20% for the head *)
  let harmonic = List.fold_left (fun acc i -> acc +. (1. /. float_of_int i)) 0. (List.init 10 succ) in
  for k = 0 to 2 do
    let emp = float_of_int counts.(k) /. float_of_int samples in
    let want = 1. /. float_of_int (k + 1) /. harmonic in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d emp %.3f vs %.3f" k emp want)
      true
      (Float.abs (emp -. want) /. want < 0.2)
  done

let test_zipf_edge () =
  let z = Zipf.create ~n:1 () in
  Alcotest.(check int) "single rank" 0 (Zipf.sample z (det "z1"));
  Alcotest.(check bool) "bad n" true
    (match Zipf.create ~n:0 () with exception Invalid_argument _ -> true | _ -> false)

(* ---------------- Corpus ---------------- *)

let test_corpus_profiles () =
  Alcotest.(check (float 1.)) "c4 bytes" (305. *. Corpus.gib) Corpus.c4.Corpus.total_bytes;
  Alcotest.(check (float 1.)) "c4 pages" 360e6 Corpus.c4.Corpus.pages;
  Alcotest.(check (float 0.01)) "c4 avg" 921.6 Corpus.c4.Corpus.avg_page_bytes;
  Alcotest.(check (float 0.01)) "wiki avg" 409.6 Corpus.wikipedia.Corpus.avg_page_bytes

let test_corpus_generation_geometry () =
  let c = Corpus.generate Corpus.c4 ~n_pages:3000 (det "corpus") in
  Alcotest.(check int) "page count" 3000 (Array.length c.Corpus.pages);
  let mean =
    Array.fold_left (fun acc p -> acc +. float_of_int (String.length p.Corpus.body)) 0. c.Corpus.pages
    /. 3000.
  in
  (* log-normal mean matches the profile within 15% at n=3000 *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.0f ~ 921" mean)
    true
    (mean > 921.6 *. 0.85 && mean < 921.6 *. 1.15);
  (* paths parse as lightweb paths and group into sites *)
  Array.iter
    (fun p ->
      match Lightweb.Lw_path.parse p.Corpus.path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    c.Corpus.pages;
  let sites = Corpus.to_sites c in
  Alcotest.(check bool) "several sites" true (List.length sites > 10);
  let total = List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 sites in
  Alcotest.(check int) "no page lost" 3000 total

let test_corpus_deterministic () =
  let a = Corpus.generate Corpus.wikipedia ~n_pages:100 (det "same") in
  let b = Corpus.generate Corpus.wikipedia ~n_pages:100 (det "same") in
  Array.iteri
    (fun i p ->
      Alcotest.(check string) "path" p.Corpus.path b.Corpus.pages.(i).Corpus.path;
      Alcotest.(check string) "body" p.Corpus.body b.Corpus.pages.(i).Corpus.body)
    a.Corpus.pages

(* ---------------- Cost model: Table 2 ---------------- *)

let test_table2_c4_row () =
  let e =
    Cost_model.estimate ~policy:Cost_model.Storage_driven
      (Cost_model.of_profile Corpus.c4) Cost_model.paper_shard Cost_model.c5_large
  in
  Alcotest.(check int) "shards" 305 e.Cost_model.shards;
  (* paper: 204 vCPU-s *)
  Alcotest.(check bool)
    (Printf.sprintf "vcpu %.1f" e.Cost_model.vcpu_seconds)
    true
    (Float.abs (e.Cost_model.vcpu_seconds -. 204.) < 2.);
  (* paper: $0.002 *)
  Alcotest.(check bool)
    (Printf.sprintf "cost %.4f" e.Cost_model.request_cost_usd)
    true
    (e.Cost_model.request_cost_usd > 0.0015 && e.Cost_model.request_cost_usd < 0.0030);
  (* paper: 7.9 up, 8 down, 15.9 total *)
  Alcotest.(check bool)
    (Printf.sprintf "up %.2f" e.Cost_model.upload_kib)
    true
    (Float.abs (e.Cost_model.upload_kib -. 7.9) < 0.25);
  Alcotest.(check (float 0.01)) "down" 8.0 e.Cost_model.download_kib;
  Alcotest.(check bool)
    (Printf.sprintf "total %.2f" e.Cost_model.total_comm_kib)
    true
    (Float.abs (e.Cost_model.total_comm_kib -. 15.9) < 0.3);
  (* paper: 2.6 s latency floor *)
  Alcotest.(check bool)
    (Printf.sprintf "latency %.2f" e.Cost_model.latency_floor_s)
    true
    (Float.abs (e.Cost_model.latency_floor_s -. 2.6) < 0.1)

let test_table2_wikipedia_row () =
  let ds = Cost_model.of_profile Corpus.wikipedia in
  (* the paper's 10 vCPU-s matches the domain-driven shard count (15) *)
  let e_dom =
    Cost_model.estimate ~policy:Cost_model.Domain_driven ds Cost_model.paper_shard
      Cost_model.c5_large
  in
  Alcotest.(check int) "domain-driven shards" 15 e_dom.Cost_model.shards;
  Alcotest.(check bool)
    (Printf.sprintf "vcpu %.1f ~ 10" e_dom.Cost_model.vcpu_seconds)
    true
    (Float.abs (e_dom.Cost_model.vcpu_seconds -. 10.) < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "cost %.5f ~ 0.0001" e_dom.Cost_model.request_cost_usd)
    true
    (e_dom.Cost_model.request_cost_usd < 0.0002);
  (* comm ~ 14.9 KiB *)
  Alcotest.(check bool)
    (Printf.sprintf "comm %.2f" e_dom.Cost_model.total_comm_kib)
    true
    (Float.abs (e_dom.Cost_model.total_comm_kib -. 14.9) < 0.5);
  (* storage-driven gives 21 shards / 14 vCPU-s: the discrepancy E4 reports *)
  let e_sto =
    Cost_model.estimate ~policy:Cost_model.Storage_driven ds Cost_model.paper_shard
      Cost_model.c5_large
  in
  Alcotest.(check int) "storage-driven shards" 21 e_sto.Cost_model.shards;
  Alcotest.(check bool) "storage-driven vcpu ~ 14" true
    (Float.abs (e_sto.Cost_model.vcpu_seconds -. 14.03) < 0.3)

let test_monthly_cost () =
  (* §4: ~$15/month *)
  let c = Cost_model.monthly_user_cost Cost_model.paper_user ~request_cost_usd:0.002 in
  Alcotest.(check (float 1e-9)) "paper point" 15.0 c;
  let e =
    Cost_model.estimate (Cost_model.of_profile Corpus.c4) Cost_model.paper_shard
      Cost_model.c5_large
  in
  let derived =
    Cost_model.monthly_user_cost Cost_model.paper_user
      ~request_cost_usd:e.Cost_model.request_cost_usd
  in
  Alcotest.(check bool) (Printf.sprintf "derived %.2f" derived) true
    (derived > 10. && derived < 22.)

let test_fi_comparison () =
  (* §5.2: NYT homepage $0.218 over Google Fi; 4 KiB costs $0.000038 *)
  Alcotest.(check bool) "nyt" true
    (Float.abs (Cost_model.fi_cost ~bytes:Cost_model.nytimes_homepage_bytes -. 0.218) < 0.002);
  let four_kib = Cost_model.fi_cost ~bytes:4096. in
  Alcotest.(check bool) (Printf.sprintf "4kib %.7f" four_kib) true
    (Float.abs (four_kib -. 0.000038) < 0.000002)

let test_cost_projection () =
  (* §5.2: an order of magnitude in 5 years *)
  let now = 0.002 in
  let in5 = Cost_model.projected_cost ~years:5. now in
  Alcotest.(check (float 1e-9)) "16x per 5y" (now /. 16.) in5;
  Alcotest.(check bool) "order of magnitude" true (in5 < now /. 10.);
  Alcotest.(check (float 1e-12)) "10 years" (now /. 256.) (Cost_model.projected_cost ~years:10. now)

let test_shard_of_measurement () =
  let s = Cost_model.shard_of_measurement ~dpf_seconds:0.5 ~scan_seconds:1.5 () in
  Alcotest.(check (float 1e-9)) "sum" 2.0 s.Cost_model.request_seconds;
  Alcotest.(check int) "default domain" 22 s.Cost_model.domain_bits

(* ---------------- Workload ---------------- *)

let test_workload_generation () =
  let visits = Workload.generate Workload.default_params (det "wl") in
  Alcotest.(check int) "count" 250 (List.length visits);
  (* times strictly increase *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Workload.time_s < b.Workload.time_s && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone times" true (mono visits);
  List.iter
    (fun v ->
      Alcotest.(check bool) "site range" true (v.Workload.site >= 0 && v.Workload.site < 20);
      Alcotest.(check bool) "page range" true (v.Workload.page >= 0 && v.Workload.page < 200))
    visits;
  (* popularity concentrates: far fewer code fetches than visits *)
  Alcotest.(check bool) "sites revisited" true (Workload.code_fetches visits < 60);
  let sites = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace sites v.Workload.site ()) visits;
  Alcotest.(check int) "one code fetch per site" (Hashtbl.length sites)
    (Workload.code_fetches visits)

let test_workload_gets_math () =
  Alcotest.(check (float 1e-9)) "monthly" 7500. (Workload.gets_per_month Cost_model.paper_user)

(* ---------------- Fingerprinting attack ---------------- *)

let labelled_traces ~sites ~per_site ~seed traditional =
  let rng = det seed in
  List.concat_map
    (fun site ->
      List.init per_site (fun i ->
          let trace =
            if traditional then Fingerprint.traditional_trace ~sites ~site rng
            else
              Fingerprint.lightweb_trace ~code_fetch:(i = 0) rng
          in
          (site, trace)))
    (List.init sites (fun s -> s))

let test_fingerprint_breaks_traditional_web () =
  let sites = 15 in
  let train = labelled_traces ~sites ~per_site:30 ~seed:"train" true in
  let test = labelled_traces ~sites ~per_site:10 ~seed:"test" true in
  let model = Fingerprint.train ~classes:sites train in
  let acc = Fingerprint.accuracy model test in
  (* the attack works: way above 1/15 chance *)
  Alcotest.(check bool) (Printf.sprintf "traditional accuracy %.2f" acc) true (acc > 0.5)

let test_fingerprint_blind_on_lightweb () =
  let sites = 15 in
  let train = labelled_traces ~sites ~per_site:30 ~seed:"train" false in
  let test = labelled_traces ~sites ~per_site:10 ~seed:"test" false in
  let model = Fingerprint.train ~classes:sites train in
  let acc = Fingerprint.accuracy model test in
  let chance = Fingerprint.chance ~classes:sites in
  (* at (or statistically near) chance: traces carry no site signal *)
  Alcotest.(check bool)
    (Printf.sprintf "lightweb accuracy %.2f vs chance %.2f" acc chance)
    true
    (acc < 3. *. chance)

let test_lightweb_trace_shape () =
  let rng = det "shape" in
  let cold = Fingerprint.lightweb_trace ~code_fetch:true rng in
  let warm = Fingerprint.lightweb_trace ~code_fetch:false rng in
  Alcotest.(check int) "cold = 1 + 5" 6 (List.length cold);
  Alcotest.(check int) "warm = 5" 5 (List.length warm);
  (* two warm visits to different "sites" are byte-identical *)
  Alcotest.(check bool) "constant" true
    (warm = Fingerprint.lightweb_trace ~code_fetch:false rng)

(* ---------------- Heavy_hitters ---------------- *)

let crng () = Lw_crypto.Drbg.create ~seed:"hh-tests"

let test_heavy_hitters_finds_popular () =
  let d = 6 in
  (* 60 queries: 0b101010 x20, 0b000111 x12, tail of singletons *)
  let alphas =
    List.concat
      [
        List.init 20 (fun _ -> 0b101010);
        List.init 12 (fun _ -> 0b000111);
        List.init 10 (fun i -> 16 + i) (* singletons, disjoint from both *);
      ]
  in
  let contributions =
    List.map (fun alpha -> Heavy_hitters.contribute ~domain_bits:d ~alpha (crng ())) alphas
  in
  let hitters = Heavy_hitters.collect ~domain_bits:d ~threshold:10L contributions in
  let lv = Heavy_hitters.leaves ~domain_bits:d hitters in
  let found = List.map (fun h -> (h.Heavy_hitters.prefix, h.Heavy_hitters.count)) lv in
  Alcotest.(check bool) "hot leaf found" true (List.mem_assoc 0b101010 found);
  Alcotest.(check bool) "warm leaf found" true (List.mem_assoc 0b000111 found);
  Alcotest.(check int) "nothing else at depth" 2 (List.length found);
  Alcotest.(check (option int64)) "exact hot count" (Some 20L) (List.assoc_opt 0b101010 found);
  Alcotest.(check (option int64)) "exact warm count" (Some 12L) (List.assoc_opt 0b000111 found)

let test_heavy_hitters_prefix_counts () =
  let d = 3 in
  let alphas = [ 0b100; 0b101; 0b110; 0b111; 0b000 ] in
  let contributions =
    List.map (fun alpha -> Heavy_hitters.contribute ~domain_bits:d ~alpha (crng ())) alphas
  in
  let hitters = Heavy_hitters.collect ~domain_bits:d ~threshold:1L contributions in
  let find level prefix =
    List.find_opt
      (fun h -> h.Heavy_hitters.level = level && h.Heavy_hitters.prefix = prefix)
      hitters
  in
  (match find 1 1 with
  | Some h -> Alcotest.(check int64) "prefix 1 has 4" 4L h.Heavy_hitters.count
  | None -> Alcotest.fail "prefix 1 missing");
  match find 2 0b10 with
  | Some h -> Alcotest.(check int64) "prefix 10 has 2" 2L h.Heavy_hitters.count
  | None -> Alcotest.fail "prefix 10 missing"

let test_heavy_hitters_pruning () =
  (* subtrees below threshold are never expanded: no hitter reported under
     a non-surviving prefix *)
  let d = 5 in
  let alphas = List.init 16 (fun _ -> 0b10000) @ [ 0b01111 ] in
  let contributions =
    List.map (fun alpha -> Heavy_hitters.contribute ~domain_bits:d ~alpha (crng ())) alphas
  in
  let hitters = Heavy_hitters.collect ~domain_bits:d ~threshold:5L contributions in
  List.iter
    (fun h ->
      (* every reported prefix must be an ancestor of (or equal to) the hot
         leaf 10000 *)
      let expect = 0b10000 lsr (d - h.Heavy_hitters.level) in
      Alcotest.(check int)
        (Printf.sprintf "level %d" h.Heavy_hitters.level)
        expect h.Heavy_hitters.prefix)
    hitters;
  Alcotest.(check int) "one per level" d (List.length hitters)

let test_heavy_hitters_single_server_blind () =
  let d = 4 in
  let contributions =
    List.map
      (fun alpha -> Heavy_hitters.contribute ~domain_bits:d ~alpha (crng ()))
      [ 3; 3; 3; 3 ]
  in
  (* one server's sum should not be the plaintext count (4) — it is a
     uniform 64-bit value *)
  let s0 = Heavy_hitters.server_sum ~party:0 ~level:4 ~prefix:3 contributions in
  Alcotest.(check bool) "share is not the count" true (Int64.abs s0 > 1000L)

(* ---------------- Queue_sim ---------------- *)

let test_queue_capacity_formula () =
  let p = Queue_sim.paper_server ~arrival_rps:1. in
  Alcotest.(check (float 0.05)) "paper capacity is 6 req/s" 6.0 (Queue_sim.capacity_rps p)

let test_queue_low_load () =
  (* far below capacity: everything served, batches mostly run un-full,
     latency ~ window + single service *)
  let p = Queue_sim.paper_server ~arrival_rps:0.2 in
  let r = Queue_sim.run p (det "q-low") in
  Alcotest.(check bool) "not saturated" false r.Queue_sim.saturated;
  Alcotest.(check int) "all served" r.Queue_sim.offered r.Queue_sim.served;
  Alcotest.(check bool) "small batches" true (r.Queue_sim.mean_batch_fill < 4.);
  Alcotest.(check bool)
    (Printf.sprintf "latency %.2f ~ window+service" r.Queue_sim.mean_latency_s)
    true
    (r.Queue_sim.mean_latency_s > 0.5 && r.Queue_sim.mean_latency_s < 5.)

let test_queue_high_load_fills_batches () =
  let p = Queue_sim.paper_server ~arrival_rps:5.5 in
  let r = Queue_sim.run p (det "q-high") in
  Alcotest.(check bool) "mostly full batches" true (r.Queue_sim.mean_batch_fill > 10.);
  Alcotest.(check bool) "high utilization" true (r.Queue_sim.utilization > 0.8);
  Alcotest.(check bool) "not saturated below capacity" false r.Queue_sim.saturated

let test_queue_overload_saturates () =
  let p = Queue_sim.paper_server ~arrival_rps:12. in
  let r = Queue_sim.run p (det "q-over") in
  Alcotest.(check bool) "saturated" true r.Queue_sim.saturated;
  (* throughput pinned at capacity *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.2f ~ capacity" r.Queue_sim.throughput_rps)
    true
    (Float.abs (r.Queue_sim.throughput_rps -. Queue_sim.capacity_rps p) < 0.5)

let test_queue_latency_monotone_in_load () =
  let lat rps =
    (Queue_sim.run (Queue_sim.paper_server ~arrival_rps:rps) (det "q-mono")).Queue_sim.p95_latency_s
  in
  Alcotest.(check bool) "p95 grows toward capacity" true (lat 5.5 > lat 1.0)

(* ---------------- Latency_model ---------------- *)

let test_latency_floor () =
  (* no stragglers, no queue, no network: page load = base compute *)
  let p =
    {
      Latency_model.paper_params with
      Latency_model.straggler_sigma = 0.;
      batch_window_s = 1e-9;
      rtt_s = 0.;
      frontend_s = 0.;
      parallel_gets = true;
    }
  in
  let l = Latency_model.page_load p ~code_fetch:false (det "lat0") in
  Alcotest.(check (float 1e-3)) "floor = one shard time" 0.167 l

let test_latency_tail_grows_with_fleet () =
  (* more shards -> worse max-of-n straggler tail *)
  let base shards =
    let p = { Latency_model.paper_params with Latency_model.shards } in
    (Latency_model.simulate ~samples:400 p ~code_fetch:false (det "tail")).Latency_model.p99_s
  in
  Alcotest.(check bool) "p99 grows with shards" true (base 305 > base 4)

let test_latency_sequential_slower () =
  let par =
    Latency_model.simulate ~samples:300 Latency_model.paper_params ~code_fetch:false (det "a")
  in
  let seq =
    Latency_model.simulate ~samples:300
      { Latency_model.paper_params with Latency_model.parallel_gets = false }
      ~code_fetch:false (det "a")
  in
  Alcotest.(check bool) "sequential fetches much slower" true
    (seq.Latency_model.p50_s > 3. *. par.Latency_model.p50_s)

let test_latency_exceeds_paper_floor () =
  (* the paper's own point: 2.6 s is a lower bound; queueing + stragglers
     push the median beyond the base compute *)
  let d = Latency_model.simulate ~samples:500 Latency_model.paper_params ~code_fetch:false (det "f") in
  Alcotest.(check bool) "median above bare compute" true (d.Latency_model.p50_s > 0.167);
  Alcotest.(check bool) "p99 above p50" true (d.Latency_model.p99_s > d.Latency_model.p50_s)

(* ---------------- properties ---------------- *)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample in range" ~count:50
    QCheck.(pair (int_range 1 100) (int_range 0 1000))
    (fun (n, salt) ->
      let z = Zipf.create ~n () in
      let rng = det (string_of_int salt) in
      let k = Zipf.sample z rng in
      k >= 0 && k < n)

let prop_estimate_monotone_in_data =
  QCheck.Test.make ~name:"bigger dataset never cheaper" ~count:30
    QCheck.(pair (int_range 1 400) (int_range 1 400))
    (fun (g1, g2) ->
      let mk g =
        Cost_model.estimate
          {
            Cost_model.name = "x";
            total_bytes = float_of_int g *. Corpus.gib;
            pages = float_of_int g *. 1e6;
            avg_page_bytes = 1024.;
          }
          Cost_model.paper_shard Cost_model.c5_large
      in
      let a = mk (min g1 g2) and b = mk (max g1 g2) in
      a.Cost_model.request_cost_usd <= b.Cost_model.request_cost_usd +. 1e-12)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_zipf_in_range; prop_estimate_monotone_in_data ]

(* E24's SPIR probe keys its store from the run's seed, which may have
   any length: a tiny geometry (16 shards, 32 KiB database, one load
   point past saturation) under seeds that do not make 16 bytes with the
   probe's suffix runs end to end. *)
let test_fleet_any_seed () =
  let tiny =
    {
      Fleet_sim.default with
      shard_bits = 4;
      domain_bits = 9;
      bucket_size = 64;
      batch_size = 4;
      calib_batches = 2;
      queries_per_point = 24;
      load_fractions = [ 0.5; 1.2 ];
      key_pool = 16;
    }
  in
  List.iter
    (fun seed ->
      let r = Fleet_sim.run { tiny with seed } in
      Alcotest.(check int) ("shards, seed " ^ seed) 16 r.Fleet_sim.shards)
    [ "fleet-sim"; "fleet-256"; "a-seed-longer-than-sixteen-bytes"; "" ]

let () =
  Alcotest.run "lw_sim"
    [
      ( "zipf",
        [
          Alcotest.test_case "distribution" `Quick test_zipf_distribution;
          Alcotest.test_case "edges" `Quick test_zipf_edge;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "profiles" `Quick test_corpus_profiles;
          Alcotest.test_case "geometry" `Quick test_corpus_generation_geometry;
          Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "table2 C4 row" `Quick test_table2_c4_row;
          Alcotest.test_case "table2 Wikipedia row" `Quick test_table2_wikipedia_row;
          Alcotest.test_case "monthly cost" `Quick test_monthly_cost;
          Alcotest.test_case "google fi comparison" `Quick test_fi_comparison;
          Alcotest.test_case "cost projection" `Quick test_cost_projection;
          Alcotest.test_case "shard of measurement" `Quick test_shard_of_measurement;
        ] );
      ( "workload",
        [
          Alcotest.test_case "generation" `Quick test_workload_generation;
          Alcotest.test_case "gets math" `Quick test_workload_gets_math;
        ] );
      ( "heavy-hitters",
        [
          Alcotest.test_case "finds popular" `Slow test_heavy_hitters_finds_popular;
          Alcotest.test_case "prefix counts" `Quick test_heavy_hitters_prefix_counts;
          Alcotest.test_case "pruning" `Quick test_heavy_hitters_pruning;
          Alcotest.test_case "single server blind" `Quick test_heavy_hitters_single_server_blind;
        ] );
      ("fleet-sim", [ Alcotest.test_case "any seed length" `Quick test_fleet_any_seed ]);
      ( "queue-sim",
        [
          Alcotest.test_case "capacity formula" `Quick test_queue_capacity_formula;
          Alcotest.test_case "low load" `Quick test_queue_low_load;
          Alcotest.test_case "high load fills batches" `Quick test_queue_high_load_fills_batches;
          Alcotest.test_case "overload saturates" `Quick test_queue_overload_saturates;
          Alcotest.test_case "latency monotone" `Quick test_queue_latency_monotone_in_load;
        ] );
      ( "latency-model",
        [
          Alcotest.test_case "floor" `Quick test_latency_floor;
          Alcotest.test_case "tail grows with fleet" `Quick test_latency_tail_grows_with_fleet;
          Alcotest.test_case "sequential slower" `Quick test_latency_sequential_slower;
          Alcotest.test_case "exceeds paper floor" `Quick test_latency_exceeds_paper_floor;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "breaks traditional web" `Quick test_fingerprint_breaks_traditional_web;
          Alcotest.test_case "blind on lightweb" `Quick test_fingerprint_blind_on_lightweb;
          Alcotest.test_case "lightweb trace shape" `Quick test_lightweb_trace_shape;
        ] );
      ("properties", props);
    ]
