(* The observability layer: histogram quantile accuracy, counter
   exactness under domain concurrency, span nesting on virtual clocks,
   the exporters, and the telemetry-adjacent bugfixes that shipped with
   lw_obs (Pacer drops/pairing, parallel scan failure handling). *)

open Lightweb

let rng () = Lw_crypto.Drbg.create ~seed:"obs-tests"

(* Registered metrics are process-global; tests that assert on absolute
   values snapshot before/after instead of assuming a fresh registry. *)

(* ---------------- Metrics: histograms ---------------- *)

(* nearest-rank quantile over the raw samples, the reference the
   bucketed estimate is checked against *)
let exact_quantile samples q =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

(* The index of the bucket [x] falls in, as a histogram reports it. *)
let bucket_of x =
  let h = Lw_obs.Metrics.scratch_histogram () in
  Lw_obs.Metrics.observe h x;
  fst (List.hd (Lw_obs.Metrics.snapshot_hist h).nonzero_buckets)

let prop_quantile_within_one_bucket =
  QCheck.Test.make ~name:"histogram quantile within one bucket of exact" ~count:200
    QCheck.(list_of_size Gen.(1 -- 400) (float_bound_exclusive 10.))
    (fun raw ->
      QCheck.assume (raw <> []);
      (* map into the latency-ish range (1e-7 .. 10 s), keep positive *)
      let samples = Array.of_list (List.map (fun x -> 1e-7 +. Float.abs x) raw) in
      let h = Lw_obs.Metrics.scratch_histogram () in
      Array.iter (Lw_obs.Metrics.observe h) samples;
      let s = Lw_obs.Metrics.snapshot_hist h in
      (* neighbouring buckets' edges are a factor sqrt 2 apart *)
      List.for_all
        (fun (q, est) ->
          abs (bucket_of est - bucket_of (exact_quantile samples q)) <= 1)
        [ (0.5, s.p50); (0.95, s.p95); (0.99, s.p99) ])

(* Merge exactness: bucketing is deterministic, so merging per-shard
   histograms must yield EXACTLY the histogram of the concatenated
   sample stream — same bucket counts, count, sum (up to float
   addition order) and max. This is what lets the fleet sim fold 64+
   per-shard histograms into one view without losing a single count. *)
let prop_merge_exact =
  QCheck.Test.make ~name:"histogram merge = histogram of concatenated streams"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 120) (float_bound_exclusive 10.))
        (list_of_size Gen.(0 -- 120) (float_bound_exclusive 10.)))
    (fun (raw_a, raw_b) ->
      let clamp x = 1e-7 +. Float.abs x in
      let a = List.map clamp raw_a and b = List.map clamp raw_b in
      let ha = Lw_obs.Metrics.scratch_histogram () in
      let hb = Lw_obs.Metrics.scratch_histogram () in
      let hc = Lw_obs.Metrics.scratch_histogram () in
      List.iter (Lw_obs.Metrics.observe ha) a;
      List.iter (Lw_obs.Metrics.observe hb) b;
      List.iter (Lw_obs.Metrics.observe hc) (a @ b);
      Lw_obs.Metrics.merge_into ~into:ha hb;
      let sa = Lw_obs.Metrics.snapshot_hist ha in
      let sc = Lw_obs.Metrics.snapshot_hist hc in
      sa.Lw_obs.Metrics.count = sc.Lw_obs.Metrics.count
      && sa.Lw_obs.Metrics.nonzero_buckets = sc.Lw_obs.Metrics.nonzero_buckets
      && Float.equal sa.Lw_obs.Metrics.max sc.Lw_obs.Metrics.max
      && Float.abs (sa.Lw_obs.Metrics.sum -. sc.Lw_obs.Metrics.sum) <= 1e-9
      (* src untouched by the merge *)
      && Lw_obs.Metrics.hist_count hb = List.length b)

let test_merge_validation () =
  let h = Lw_obs.Metrics.scratch_histogram () in
  Lw_obs.Metrics.observe h 0.01;
  Alcotest.check_raises "self-merge rejected"
    (Invalid_argument "Lw_obs.Metrics.merge_into: cannot merge a histogram into itself")
    (fun () -> Lw_obs.Metrics.merge_into ~into:h h);
  (* merging an empty source is a no-op *)
  let empty = Lw_obs.Metrics.scratch_histogram () in
  Lw_obs.Metrics.merge_into ~into:h empty;
  Alcotest.(check int) "count unchanged" 1 (Lw_obs.Metrics.hist_count h)

let test_histogram_basics () =
  let h = Lw_obs.Metrics.histogram "test.obs.basics" in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Lw_obs.Metrics.snapshot_hist h).p99;
  Alcotest.(check (float 0.)) "empty max" 0. (Lw_obs.Metrics.hist_max h);
  List.iter (Lw_obs.Metrics.observe h) [ 0.010; 0.010; 0.010; 0.500 ];
  Alcotest.(check int) "count" 4 (Lw_obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "max" 0.5 (Lw_obs.Metrics.hist_max h);
  let s = Lw_obs.Metrics.snapshot_hist h in
  Alcotest.(check (float 1e-9)) "sum" 0.53 s.sum;
  (* p50 lands in 10ms's bucket: within a factor sqrt 2 *)
  let p50 = s.p50 in
  Alcotest.(check bool) "p50 near 10ms" true (p50 >= 0.010 /. sqrt 2. && p50 <= 0.010 *. sqrt 2.);
  (* the estimate never exceeds the observed max *)
  Alcotest.(check bool) "p99 <= max" true (s.p99 <= 0.5)

(* Finite samples too large for any real bucket land in the top one
   (index 95 of 96), not in bucket 1. *)
let test_histogram_huge_samples () =
  let h = Lw_obs.Metrics.histogram "test.obs.huge" in
  List.iter (Lw_obs.Metrics.observe h) [ Float.max_float; 1e300 ];
  Alcotest.(check (list (pair int int))) "top bucket" [ (95, 2) ]
    (Lw_obs.Metrics.snapshot_hist h).nonzero_buckets

let test_metric_kind_mismatch () =
  ignore (Lw_obs.Metrics.counter "test.obs.kind");
  Alcotest.check_raises "histogram under a counter name"
    (Invalid_argument
       "Lw_obs.Metrics: test.obs.kind already registered with a different kind (wanted histogram)")
    (fun () -> ignore (Lw_obs.Metrics.histogram "test.obs.kind"))

(* ---------------- Metrics: counters under domains ---------------- *)

let test_counter_exact_under_domains () =
  let c = Lw_obs.Metrics.counter "test.obs.domains" in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Lw_obs.Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain) (Lw_obs.Metrics.counter_value c)

(* One random sealed epoch of 2^8 x 64 B buckets. *)
let random_store seed =
  let st = Lw_store.create ~domain_bits:8 ~bucket_size:64 () in
  let w = Lw_store.writer st in
  Lw_store.Writer.fill_random w (Lw_util.Det_rng.of_string_seed seed);
  ignore (Lw_store.Writer.seal w);
  st

let random_server seed = Lw_pir.Server.of_snapshot (Lw_store.current (random_store seed))

let test_counter_exact_under_concurrent_answers () =
  let server = random_server "obs-par" in
  let k0, _ = Lw_dpf.Dpf.gen ~domain_bits:8 ~alpha:42 (rng ()) in
  let c = Lw_obs.Metrics.counter "pir.server.answers" in
  let before = Lw_obs.Metrics.counter_value c in
  let calls = 10 in
  (* 4 domains answer concurrently, [calls] answers each *)
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to calls do
              ignore (Lw_pir.Server.answer server k0)
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "pir.server.answers exact" (calls * 4)
    (Lw_obs.Metrics.counter_value c - before)

(* ---------------- Span tracing on a virtual clock ---------------- *)

let test_span_nesting_virtual_clock () =
  let clock = Lw_obs.Clock.virtual_ () in
  Lw_obs.Span.set_clock clock;
  Fun.protect ~finally:(fun () -> Lw_obs.Span.set_clock (Lw_obs.Clock.real ()))
    (fun () ->
      Lw_obs.Span.with_ ~name:"outer" (fun () ->
          Lw_obs.Clock.sleep clock 1.0;
          Lw_obs.Span.with_ ~name:"inner" (fun () -> Lw_obs.Clock.sleep clock 2.0));
      (* a span after the outer one closed nests under nothing *)
      Lw_obs.Span.with_ ~name:"after" ignore;
      Alcotest.(check int) "stack unwound" 1
        (Lw_obs.Metrics.hist_count (Lw_obs.Metrics.histogram "span.after"));
      let outer = Lw_obs.Metrics.histogram "span.outer" in
      let inner = Lw_obs.Metrics.histogram "span.outer.inner" in
      Alcotest.(check int) "outer recorded" 1 (Lw_obs.Metrics.hist_count outer);
      Alcotest.(check int) "inner recorded" 1 (Lw_obs.Metrics.hist_count inner);
      (* deterministic on the virtual clock: outer spans exactly 3s *)
      Alcotest.(check (float 1e-9)) "outer max" 3.0 (Lw_obs.Metrics.hist_max outer);
      Alcotest.(check (float 1e-9)) "inner max" 2.0 (Lw_obs.Metrics.hist_max inner))

let test_span_records_on_raise () =
  let clock = Lw_obs.Clock.virtual_ () in
  Lw_obs.Span.set_clock clock;
  Fun.protect ~finally:(fun () -> Lw_obs.Span.set_clock (Lw_obs.Clock.real ()))
    (fun () ->
      (try
         Lw_obs.Span.with_ ~name:"raises" (fun () ->
             Lw_obs.Clock.sleep clock 0.5;
             failwith "boom")
       with Failure _ -> ());
      Lw_obs.Span.with_ ~name:"after_raise" ignore;
      Alcotest.(check int) "stack unwound after raise" 1
        (Lw_obs.Metrics.hist_count (Lw_obs.Metrics.histogram "span.after_raise"));
      Alcotest.(check int) "duration still recorded" 1
        (Lw_obs.Metrics.hist_count (Lw_obs.Metrics.histogram "span.raises")))

(* ---------------- Exporters ---------------- *)

let test_exporters () =
  let c = Lw_obs.Metrics.counter "test.obs.export_counter" in
  let g = Lw_obs.Metrics.gauge "test.obs.export_gauge" in
  let h = Lw_obs.Metrics.histogram "test.obs.export_hist" in
  Lw_obs.Metrics.incr c;
  Lw_obs.Metrics.add c 41;
  Lw_obs.Metrics.set g 2.5;
  Lw_obs.Metrics.observe h 0.125;
  let prom = Lw_obs.Export.to_prometheus () in
  let has needle =
    let nl = String.length needle and pl = String.length prom in
    let rec at i = i + nl <= pl && (String.sub prom i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "prom counter line" true (has "test_obs_export_counter 42");
  Alcotest.(check bool) "prom quantile label" true
    (has "test_obs_export_hist{quantile=\"0.5\"}");
  Alcotest.(check bool) "prom count line" true (has "test_obs_export_hist_count 1")

(* ---------------- Pacer: drops, drain, exact pairing ---------------- *)

let test_pacer_final_slot_and_beyond_horizon () =
  (* slots at 0,10,...,90; t=90 lands in the final slot, t=95 and the
     second queued visit used to be silently dropped *)
  let visits = [ (90., "final"); (95., "late"); (89., "queued") ] in
  let schedule = Pacer.pace ~slot_s:10. ~horizon_s:100. visits in
  Alcotest.(check int) "slot count unchanged" 10 (List.length schedule);
  let reals =
    List.filter_map
      (fun s -> match s.Pacer.action with Pacer.Real p -> Some p | Pacer.Dummy -> None)
      schedule
  in
  Alcotest.(check (list string)) "final slot serves FIFO head" [ "queued" ] reals;
  let st = Pacer.stats ~slot_s:10. visits schedule in
  Alcotest.(check int) "dropped surfaced" 2 st.Pacer.dropped;
  Alcotest.(check int) "served real" 1 st.Pacer.real;
  (* exact pairing: "queued" arrived at 89 and was served at 90 *)
  Alcotest.(check (float 1e-9)) "exact delay" 1.0 st.Pacer.max_delay_s

let test_pacer_drain_serves_everything () =
  let visits = [ (90., "final"); (95., "late"); (89., "queued"); (131., "way-out") ] in
  let schedule = Pacer.pace ~drain:true ~slot_s:10. ~horizon_s:100. visits in
  let st = Pacer.stats ~slot_s:10. visits schedule in
  Alcotest.(check int) "nothing dropped" 0 st.Pacer.dropped;
  Alcotest.(check int) "all served" 4 st.Pacer.real;
  (* cadence continues past the horizon: slots stay 10s apart and the
     last slot serves the last visit *)
  let times = List.map (fun s -> s.Pacer.time_s) schedule in
  List.iteri (fun i t -> Alcotest.(check (float 1e-9)) "cadence" (10. *. float_of_int i) t) times;
  let last = List.nth schedule (List.length schedule - 1) in
  Alcotest.(check bool) "ends on a real" true (last.Pacer.action = Pacer.Real "way-out")

let test_pacer_stats_pairing_exact_under_backlog () =
  (* burst of 3 at t=0 against 10s slots: served at 0,10,20 with delays
     0,10,20 — the replay pairs each real slot with the visit it
     actually served *)
  let visits = [ (0., "a"); (0., "b"); (0., "c") ] in
  let schedule = Pacer.pace ~slot_s:10. ~horizon_s:60. visits in
  let st = Pacer.stats ~slot_s:10. visits schedule in
  Alcotest.(check int) "all served" 3 st.Pacer.real;
  Alcotest.(check int) "none dropped" 0 st.Pacer.dropped;
  Alcotest.(check (float 1e-9)) "max delay" 20. st.Pacer.max_delay_s;
  Alcotest.(check (float 1e-9)) "mean delay" 10. st.Pacer.mean_delay_s

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "lw_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "huge samples in the top bucket" `Quick test_histogram_huge_samples;
          Alcotest.test_case "merge validation" `Quick test_merge_validation;
          Alcotest.test_case "kind mismatch" `Quick test_metric_kind_mismatch;
          Alcotest.test_case "counters exact under domains" `Quick test_counter_exact_under_domains;
          Alcotest.test_case "counters exact under concurrent answers" `Quick
            test_counter_exact_under_concurrent_answers;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting on virtual clock" `Quick test_span_nesting_virtual_clock;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise;
        ] );
      ("export", [ Alcotest.test_case "json + prometheus" `Quick test_exporters ]);
      ( "pacer-regressions",
        [
          Alcotest.test_case "final slot + beyond horizon" `Quick
            test_pacer_final_slot_and_beyond_horizon;
          Alcotest.test_case "drain serves everything" `Quick test_pacer_drain_serves_everything;
          Alcotest.test_case "exact pairing under backlog" `Quick
            test_pacer_stats_pairing_exact_under_backlog;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quantile_within_one_bucket; prop_merge_exact ] );
    ]
