(* The lightweb benchmark harness: regenerates every quantitative result
   in the paper's evaluation (§4, §5, Table 2), and runs the ablations,
   extensions and byte-identity gates around it.

     dune exec bench/main.exe -- [--fast | --smoke] [--metrics] [E<n> ...]

   With no ids it runs every experiment (a few minutes at full size);
   ids run just those, in the order given. --fast shrinks every
   geometry; --smoke is the tiny size of the `dune runtest` gates, which
   only the experiments marked so in [experiments] have. Only full-size
   runs write BENCH_*.json. --metrics ends the run with a Prometheus dump
   of the lw_obs registry. An unknown argument, or --smoke on an
   experiment without that size, prints the usage and exits 64 before
   anything runs.

   Experiment ids follow DESIGN.md §3: E1 server computation, E2
   batching, E3 communication, E4 Table 2, E5 monthly user cost, E6
   collisions, E7 distributed DPF evaluation, E8 PIR vs enclave
   ablation, E9 cost projection, E10 traffic-analysis attack; E11-E17
   ablations and extensions; E19 scan kernels, E20 retry tail latency,
   E21 observability overhead, E22 store updates, E23 lint cost, E24
   fleet, E25 process cluster, E26 keyword GET, E27 Single mode. Paper
   numbers are printed beside measurements; EXPERIMENTS.md records the
   comparison. *)

module Json = Lw_json.Json

(* E25 spawns shard processes by re-execing this very binary; when argv
   carries the worker marker, dive into the shard loop before any
   benchmark machinery looks at argv. *)
let () = Lw_cluster.Worker.run_if_worker ()

(* Every experiment runs at one of three sizes: the full geometry, a
   reduced one, and (for the experiments the runtest gates run) a tiny
   one. *)
type size = Full | Fast | Smoke

let rng () = Lw_crypto.Drbg.create ~seed:"bench"
let det = Lw_util.Det_rng.of_string_seed

(* One sealed epoch of pseudorandom buckets: the store every scan
   benchmark serves. *)
let random_store ~domain_bits ~bucket_size seed =
  let st = Lw_store.create ~domain_bits ~bucket_size () in
  let w = Lw_store.writer st in
  Lw_store.Writer.fill_random w (det seed);
  ignore (Lw_store.Writer.seal w);
  st

let whole_server st = Lw_pir.Server.of_snapshot (Lw_store.current st)

let section id title =
  Printf.printf "\n%s\n%s — %s\n%s\n" (String.make 78 '=') id title (String.make 78 '=')

let row fmt = Printf.printf fmt

(* median-of-reps wall timing for composite experiments *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0)

let time_median ?(reps = 5) f =
  let samples = Array.init reps (fun _ -> snd (time_once f)) in
  (* polymorphic compare mis-sorts NaN; insist on finite samples and
     order with the float-aware comparison *)
  Array.iter (fun s -> assert (Float.is_finite s)) samples;
  Array.sort Float.compare samples;
  samples.(reps / 2)

(* Every BENCH_*.json embeds the machine it was produced on, so numbers
   from different checkouts are never compared blind: core count decides
   whether the domain-parallel results mean anything (on 1 core the
   wall-clock "speedup" is noise and only the critical-path figure is
   informative), the compiler/word size pin down the codegen, the scan
   kernel names the vector build the CPU picked for every scan, the AES
   build the one every DPF PRG call runs, the ChaCha20 build the one
   under the DRBG and the AEAD, and the CRC-32 build the one under every
   wire frame's trailer. *)
let machine_meta () =
  Json.Obj
    [
      ("cores", Json.Number (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("word_size", Json.Number (float_of_int Sys.word_size));
      ("os_type", Json.String Sys.os_type);
      ("scan_kernel", Json.String (Lw_util.Xorbuf.scan_kernel ()));
      ("aes_build", Json.String (Lw_crypto.Aes128.build ()));
      ("chacha_build", Json.String (Lw_crypto.Chacha20.build ()));
      ("crc_build", Json.String (Lw_util.Crc32.build ()));
    ]

(* A full-size run writes its experiment's BENCH_*.json: the id, the
   machine, then the experiment's own fields. The reduced sizes write
   nothing, so every committed file holds full-size numbers. *)
let write_bench size ~id file fields =
  if size = Full then begin
    let j = Json.Obj (("experiment", Json.String id) :: ("machine", machine_meta ()) :: fields) in
    let oc = open_out file in
    output_string oc (Json.to_string ~pretty:true j);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* ------------------------------------------------------------------ *)
(* Bechamel kernels                                                    *)
(* ------------------------------------------------------------------ *)

let bechamel_kernels size =
  let open Bechamel in
  let open Toolkit in
  let seed16 = Bytes.of_string (String.sub (Lw_crypto.Sha256.digest "kernel") 0 16) in
  let out32 = Bytes.create 32 in
  let drbg = rng () in
  let dpf22_0, _ = Lw_dpf.Dpf.gen ~domain_bits:22 ~alpha:123456 drbg in
  let small_store = random_store ~domain_bits:10 ~bucket_size:4096 "kern-db" in
  let small_server = whole_server small_store in
  let dpf10_0, _ = Lw_dpf.Dpf.gen ~domain_bits:10 ~alpha:77 drbg in
  let tests =
    [
      Test.make ~name:"prg.aes-mmo.expand"
        (Staged.stage (fun () ->
             ignore
               (Lw_dpf.Prg.expand_into ~src:seed16 ~src_pos:0 ~dst:out32 ~dst_pos:0)));
      Test.make ~name:"dpf.gen.d22"
        (Staged.stage (fun () -> ignore (Lw_dpf.Dpf.gen ~domain_bits:22 ~alpha:1 drbg)));
      Test.make ~name:"dpf.eval_point.d22"
        (Staged.stage (fun () -> ignore (Lw_dpf.Dpf.eval_bit dpf22_0 987654)));
      Test.make ~name:"dpf.eval_all.d10"
        (Staged.stage (fun () -> Lw_dpf.Dpf.eval_all_bits dpf10_0 (fun _ _ -> ())));
      Test.make ~name:"pir.answer.d10x4KiB"
        (Staged.stage (fun () -> ignore (Lw_pir.Server.answer small_server dpf10_0)));
    ]
  in
  let grouped = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if size = Fast then 0.25 else 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  Hashtbl.fold
    (fun name ols_result acc ->
      match Analyze.OLS.estimates ols_result with
      | Some (ns :: _) -> (name, ns) :: acc
      | _ -> acc)
    clock []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* E1: server computation (§5.1)                                       *)
(* ------------------------------------------------------------------ *)

(* measured rates, reused by E4's "our hardware" variant *)
let measured = ref None

let e1_server_computation size =
  section "E1" "server computation per private-GET (§5.1 microbenchmark)";
  Printf.printf
    "paper (c5.large, AVX, 1 GiB shard, 2^22 domain): 167 ms/request = 64 ms DPF + 103 ms scan\n\n";
  let domains = if size = Fast then [ 10; 12 ] else [ 10; 12; 14 ] in
  let bucket_size = 4096 in
  row "%-8s %-12s %-12s %-12s %-12s %-14s %-14s\n" "domain" "db size" "DPF eval" "scan"
    "fused" "total/request" "scan rate";
  let last = ref (0., 0., 0., 0) in
  List.iter
    (fun d ->
      let st = random_store ~domain_bits:d ~bucket_size "e1" in
      let server = whole_server st in
      let key, _ = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:(1 lsl (d - 1)) (rng ()) in
      let reps = if size = Fast then 3 else 5 in
      let eval_s = time_median ~reps (fun () -> ignore (Lw_pir.Server.eval_bits server key)) in
      let bits = Lw_pir.Server.eval_bits server key in
      let scan_s = time_median ~reps (fun () -> ignore (Lw_pir.Server.scan server bits)) in
      (* the production path: eval and scan fused into one blocked pass *)
      let fused_s = time_median ~reps (fun () -> ignore (Lw_pir.Server.answer server key)) in
      let db_bytes = float_of_int (Lw_store.total_bytes st) in
      let scan_rate = db_bytes /. scan_s /. 1e9 in
      row "2^%-6d %-12s %9.2f ms %9.2f ms %9.2f ms %11.2f ms %10.2f GB/s\n" d
        (Printf.sprintf "%.0f MiB" (db_bytes /. 1048576.))
        (1000. *. eval_s) (1000. *. scan_s) (1000. *. fused_s)
        (1000. *. fused_s)
        scan_rate;
      last := (eval_s, scan_s, fused_s, d))
    domains;
  (* the paper's shard is 2^22 buckets of 256 B: time one DPF evaluation
     at that domain directly, streamed in the blocks the server would use
     there (no store needed: the traversal does not read the data) *)
  let key22, _ = Lw_dpf.Dpf.gen ~domain_bits:22 ~alpha:123456 (rng ()) in
  let eval_2_22 =
    time_median ~reps:(if size = Fast then 3 else 5) (fun () ->
        Lw_dpf.Dpf.eval_bits_blocked key22 ~block_bits:10 (fun _ _ _ -> ()))
  in
  Printf.printf
    "\none DPF evaluation at the paper's shard (2^22 domain, 1 GiB at 256 B buckets, AES build %s):\n\
    \  %.1f ms, i.e. %.1f ms per GiB of shard (paper: 64 ms)\n"
    (Lw_crypto.Aes128.build ()) (1000. *. eval_2_22) (1000. *. eval_2_22);
  (* extrapolate the largest measurement's scan to the paper's shard
     geometry; the §5.1 cost-model constants track the fused production
     kernel, so its scan component is fused total minus the (shared) eval
     phase *)
  let eval_s, scan_s, fused_s, d = !last in
  let gib = 1073741824. in
  let db_bytes = float_of_int ((1 lsl d) * bucket_size) in
  let scan_1gib = scan_s *. gib /. db_bytes in
  let fused_scan_1gib = Float.max 0. (fused_s -. eval_s) *. gib /. db_bytes in
  Printf.printf
    "the paper's shard (2^22 domain, 1 GiB): %.0f ms DPF (measured) + %.0f ms fused scan (extrapolated) = %.0f ms\n"
    (1000. *. eval_2_22) (1000. *. fused_scan_1gib)
    (1000. *. (eval_2_22 +. fused_scan_1gib));
  Printf.printf
    "two-pass reference at the same geometry:                 %.0f ms DPF + %.0f ms scan = %.0f ms\n"
    (1000. *. eval_2_22) (1000. *. scan_1gib)
    (1000. *. (eval_2_22 +. scan_1gib));
  Printf.printf
    "paper:                                                   64 ms DPF + 103 ms scan = 167 ms\n";
  Printf.printf
    "(AES-MMO and the scan run in C here too; the split and scaling shape are the comparable part)\n";
  measured :=
    Some
      (Lw_sim.Cost_model.shard_of_measurement ~dpf_seconds:eval_2_22
         ~scan_seconds:fused_scan_1gib ())

(* ------------------------------------------------------------------ *)
(* E2: batching (§5.1)                                                 *)
(* ------------------------------------------------------------------ *)

let e2_batching size =
  section "E2" "request batching: latency vs throughput (§5.1)";
  Printf.printf
    "paper: batch 1 -> 0.51 s latency, 2 req/s;  batch 16 -> 2.6 s latency, 6 req/s\n\n";
  (* the amortisation is a memory-bandwidth effect: the batch shares one
     stream over the data, so the database must exceed the cache for the
     effect to be visible (the paper's shard is 1 GiB) *)
  let d = if size = Fast then 13 else 15 in
  let st = random_store ~domain_bits:d ~bucket_size:4096 "e2" in
  let server = whole_server st in
  Printf.printf "database: 2^%d buckets x 4 KiB = %d MiB\n\n" d
    (Lw_store.total_bytes st / 1048576);
  let batches = [ 1; 2; 4; 8; 16; 32 ] in
  row "%-8s %-14s %-16s %-16s %-12s\n" "batch" "latency" "per-request" "throughput" "speedup";
  let base = ref 0. in
  List.iter
    (fun n ->
      let keys =
        Array.init n (fun i ->
            fst (Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:(i * 37 mod (1 lsl d)) (rng ())))
      in
      (* every request in the batch completes when the one pass does; one
         untimed pass first, as the first passes over a fresh store run
         up to twice as slow *)
      let answer () = ignore (Lw_pir.Server.answer_batch server keys) in
      answer ();
      let latency = time_median answer in
      let per_request = latency /. float_of_int n in
      if n = 1 then base := per_request;
      row "%-8d %9.2f ms %13.2f ms %10.1f req/s %9.2fx\n" n (1000. *. latency)
        (1000. *. per_request) (float_of_int n /. latency) (!base /. per_request))
    batches;
  Printf.printf
    "\nshape check: latency grows with batch size while per-request cost falls (the\n\
     batch shares one pass over the data; the paper reports 3x at batch 16). The\n\
     kernel here loads each record once for a tile of lanes, so the per-request\n\
     cost falls further; the direction matches.\n"

(* ------------------------------------------------------------------ *)
(* E3: communication (§5.1)                                            *)
(* ------------------------------------------------------------------ *)

let e3_communication (_ : size) =
  section "E3" "communication per private-GET (§5.1)";
  Printf.printf "paper at d=22, 4 KiB buckets: 5.6 KiB up + 8 KiB down = 13.6 KiB per request\n\n";
  let bucket = 4096 in
  row "%-8s %-22s %-26s %-14s\n" "domain" "real keys (2 servers)" "paper formula (2 keys)" "download";
  List.iter
    (fun d ->
      let real = 2 * Lw_dpf.Dpf.serialized_size ~domain_bits:d in
      let paper = 2 * Lw_dpf.Dpf.paper_key_size ~domain_bits:d in
      row "%-8d %14d B %19d B (%4.1f KiB) %9d B\n" d real paper
        (float_of_int paper /. 1024.)
        (2 * bucket))
    [ 12; 16; 22; 26 ];
  (* measured on the wire: one end-to-end GET through the ZLTP stack *)
  let u = Lightweb.Universe.create ~name:"e3" Lightweb.Universe.default_geometry in
  ignore (Lightweb.Universe.claim_domain u ~publisher:"p" ~domain:"bench.example");
  ignore
    (Lightweb.Universe.push_data u ~publisher:"p" ~path:"bench.example/x"
       ~value:(Json.String "payload"));
  let d0, d1 = Lightweb.Universe.data_servers u in
  let e0, c0 = Lw_net.Endpoint.with_counters (Lightweb.Zltp_server.endpoint d0) in
  let e1, c1 = Lw_net.Endpoint.with_counters (Lightweb.Zltp_server.endpoint d1) in
  (match Lightweb.Zltp_client.connect ~rng:(rng ()) [ e0; e1 ] with
  | Ok client ->
      let base_up = c0.Lw_net.Endpoint.sent_bytes + c1.Lw_net.Endpoint.sent_bytes in
      let base_down = c0.Lw_net.Endpoint.recv_bytes + c1.Lw_net.Endpoint.recv_bytes in
      ignore (Lightweb.Zltp_client.get client "bench.example/x");
      let up = c0.Lw_net.Endpoint.sent_bytes + c1.Lw_net.Endpoint.sent_bytes - base_up in
      let down = c0.Lw_net.Endpoint.recv_bytes + c1.Lw_net.Endpoint.recv_bytes - base_down in
      Printf.printf
        "\nmeasured on the wire (this repo, d=%d, %d B buckets): %d B up + %d B down\n"
        Lightweb.Universe.default_geometry.Lightweb.Universe.data_domain_bits
        Lightweb.Universe.default_geometry.Lightweb.Universe.data_blob_size up down
  | Error e -> Printf.printf "wire measurement failed: %s\n" e);
  Printf.printf
    "\nnote: our real BGI16 keys are (16 B seed + 1 B ctrl)/level; the paper's \"(λ+2)d\"\n\
     arithmetic only reproduces its 5.6 KiB upload if read in bytes — the cost model\n\
     uses the paper formula for Table 2 fidelity and the real size for this repo.\n"

(* ------------------------------------------------------------------ *)
(* E4: Table 2                                                         *)
(* ------------------------------------------------------------------ *)

let print_table2 label shard =
  let open Lw_sim in
  Printf.printf "\n[%s: %.0f ms DPF + %.0f ms scan per 1 GiB shard]\n" label
    (1000. *. shard.Cost_model.dpf_seconds)
    (1000. *. shard.Cost_model.scan_seconds);
  row "%-11s %-10s %-8s %-10s %-8s %-10s %-12s %-10s\n" "Dataset" "Total" "#pages" "Avg page"
    "shards" "vCPU sec" "Request $" "Comm";
  List.iter
    (fun (profile, policy) ->
      let ds = Cost_model.of_profile profile in
      let e = Cost_model.estimate ~policy ds shard Cost_model.c5_large in
      row "%-11s %7.0fGiB %6.0fM %7.1fKiB %-8d %-10.0f $%-11.4f %.1f KiB\n" e.Cost_model.dataset
        (ds.Cost_model.total_bytes /. Corpus.gib)
        (ds.Cost_model.pages /. 1e6)
        (ds.Cost_model.avg_page_bytes /. 1024.)
        e.Cost_model.shards e.Cost_model.vcpu_seconds e.Cost_model.request_cost_usd
        e.Cost_model.total_comm_kib)
    [ (Corpus.c4, Cost_model.Storage_driven); (Corpus.wikipedia, Cost_model.Domain_driven) ]

(* The same Table-2 point priced under every deployment model the modes
   negotiate: the C1-C4 columns (compute, dollars, communication, latency
   floor) per Zltp_mode, so the paper's trade-off argument is one table. *)
let print_three_way label shard =
  let open Lw_sim in
  Printf.printf "\n[three-way deployment comparison: %s]\n" label;
  List.iter
    (fun (profile, policy) ->
      let ds = Cost_model.of_profile profile in
      Printf.printf "%s:\n" ds.Cost_model.name;
      List.iter
        (fun mc -> Format.printf "  %a\n" Cost_model.pp_mode_cost mc)
        (Cost_model.three_way ~policy ds shard Cost_model.c5_large);
      Format.print_flush ())
    [ (Corpus.c4, Cost_model.Storage_driven); (Corpus.wikipedia, Cost_model.Domain_driven) ]

let e4_table2 (_ : size) =
  section "E4" "Table 2: estimated costs of running ZLTP on C4 and Wikipedia";
  Printf.printf
    "paper:    C4:        305 GiB, 360M pages, 0.9 KiB, 204 vCPU-s, $0.002,  15.9 KiB\n";
  Printf.printf
    "          Wikipedia:  21 GiB,  60M pages, 0.4 KiB,  10 vCPU-s, $0.0001, 14.9 KiB\n";
  print_table2 "paper's measured shard" Lw_sim.Cost_model.paper_shard;
  (match !measured with
  | Some shard -> print_table2 "this repo's measured shard (E1)" shard
  | None -> ());
  Printf.printf
    "\nnote: the Wikipedia row matches the paper only under domain-driven sharding\n\
     (⌈60M/2^22⌉ = 15 shards -> 10.0 vCPU-s); storage-driven gives 21 shards / 14 vCPU-s.\n\
     The C4 row is storage-driven (305 shards). See EXPERIMENTS.md.\n";
  print_three_way "paper's measured shard" Lw_sim.Cost_model.paper_shard;
  Printf.printf
    "\nsingle re-shards at the LWE noise cap (2^%d pages/shard) and every shard answers\n\
     every query, so its C3 column is selection-vector-dominated; the per-epoch hint is\n\
     amortized across all clients and reported beside C3, not in it. enclave pays an\n\
     ORAM path on one trusted machine. E27 measures the Single column end to end.\n"
    Lw_pir.Spir.max_domain_bits

(* ------------------------------------------------------------------ *)
(* E5: §4 who pays                                                     *)
(* ------------------------------------------------------------------ *)

let e5_monthly_cost (_ : size) =
  section "E5" "per-user monthly cost (§4)";
  let open Lw_sim in
  Printf.printf "paper: 50 pages/day x 5 GETs at 360M-page scale ~= $15/month\n\n";
  let e =
    Cost_model.estimate (Cost_model.of_profile Corpus.c4) Cost_model.paper_shard
      Cost_model.c5_large
  in
  let cost = e.Cost_model.request_cost_usd in
  row "%-34s %10s %14s\n" "user profile" "GETs/month" "monthly cost";
  List.iter
    (fun (label, (u : Cost_model.user_profile)) ->
      row "%-34s %10.0f %13.2f$\n" label (Workload.gets_per_month u)
        (Cost_model.monthly_user_cost u ~request_cost_usd:cost))
    [
      ("paper user (50 pages/day, 5 GETs)", Cost_model.paper_user);
      ("light reader (10 pages/day)", { Cost_model.pages_per_day = 10.; gets_per_page = 5 });
      ("heavy reader (150 pages/day)", { Cost_model.pages_per_day = 150.; gets_per_page = 5 });
      ("3 GETs/page universe", { Cost_model.pages_per_day = 50.; gets_per_page = 3 });
    ];
  (* cross-check with a generated browsing session: code fetches add a
     little on top of the 5-GET budget *)
  let visits = Workload.generate Workload.default_params (det "e5") in
  let data_gets = 5 * List.length visits in
  let code_gets = Workload.code_fetches visits in
  Printf.printf
    "\nworkload cross-check: %d visits -> %d data GETs + %d code fetches (%.1f%% overhead)\n"
    (List.length visits) data_gets code_gets
    (100. *. float_of_int code_gets /. float_of_int data_gets);
  Printf.printf
    "Google Fi comparison (§5.2): NYT homepage (22.4 MiB) = $%.3f; one 4 KiB blob = $%.6f\n"
    (Cost_model.fi_cost ~bytes:Cost_model.nytimes_homepage_bytes)
    (Cost_model.fi_cost ~bytes:4096.);
  Printf.printf
    "ZLTP 4 KiB private-GET = $%.4f, %.0fx the non-private transfer\n\
     (paper: $0.002 vs $0.000038, \"roughly two orders of magnitude\")\n"
    cost
    (cost /. Cost_model.fi_cost ~bytes:4096.)

(* ------------------------------------------------------------------ *)
(* E6: collisions and cuckoo hashing (§5.1)                            *)
(* ------------------------------------------------------------------ *)

let e6_collisions size =
  section "E6" "keyword collisions at capacity (§5.1) and the cuckoo alternative";
  Printf.printf
    "paper: 2^20 keys in a 2^22 domain -> new-key collision probability <= 1/4\n\n";
  let open Lw_pir in
  row "%-22s %-12s %-12s %-12s\n" "load (keys/domain)" "analytic" "monte carlo" "birthday(any)";
  List.iter
    (fun (keys_bits, domain_bits) ->
      let n = 1 lsl keys_bits in
      let analytic = Keymap.new_key_collision_probability ~n_keys:n ~domain_bits in
      let km = Keymap.create ~hash_key:(String.make 16 'e') ~domain_bits in
      let trials = if size = Fast then 1500 else 6000 in
      let mc = Keymap.monte_carlo_new_key_collision km ~n_keys:n ~trials (det "e6") in
      row "2^%-2d in 2^%-11d %9.3f %12.3f %12.3f\n" keys_bits domain_bits analytic mc
        (Keymap.any_collision_probability ~n_keys:n ~domain_bits))
    [ (12, 16); (14, 16); (12, 14); (14, 17) ];
  Printf.printf "\npaper's point (2^20 in 2^22): analytic %.3f\n"
    (Keymap.new_key_collision_probability ~n_keys:(1 lsl 20) ~domain_bits:22);
  (* cuckoo: same load, publish failures. 2-choice cuckoo is reliable
     below its 50% load threshold, so compare at 45%. *)
  let domain_bits = 12 in
  let n = 45 * (1 lsl domain_bits) / 100 in
  let single = Store.create ~domain_bits ~bucket_size:64 () in
  let rejected = ref 0 in
  for i = 0 to n - 1 do
    match Store.insert single ~key:(Printf.sprintf "k%d" i) ~value:"v" with
    | Ok () -> ()
    | Error _ -> incr rejected
  done;
  let cuckoo = Lw_pir.Kw_store.create ~domain_bits ~bucket_size:64 () in
  let full = ref 0 in
  for i = 0 to n - 1 do
    match Lw_pir.Kw_store.insert cuckoo ~key:(Printf.sprintf "k%d" i) ~value:"v" with
    | Ok () -> ()
    | Error _ -> incr full
  done;
  Printf.printf
    "\nat 45%% load (2^%d domain, %d keys):\n\
    \  single-hash store: %d publish failures (%.1f%%) -> renames\n\
    \  cuckoo (2 probes/query): %d stored, %d publish failures\n"
    domain_bits n !rejected
    (100. *. float_of_int !rejected /. float_of_int n)
    (Lw_pir.Kw_store.count cuckoo) !full

(* ------------------------------------------------------------------ *)
(* E7: distributed DPF evaluation (§5.2)                               *)
(* ------------------------------------------------------------------ *)

let e7_distributed size =
  section "E7" "distributing DPF evaluation across shards (§5.2)";
  Printf.printf
    "paper: the front-end expands the top of the tree; each shard pays only the\n\
     small-domain evaluation cost, so per-shard time is flat as the fleet grows.\n\n";
  let d = if size = Fast then 12 else 14 in
  let bucket_size = 1024 in
  let st = random_store ~domain_bits:d ~bucket_size "e7" in
  let flat = whole_server st in
  let key, _ = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:((1 lsl d) - 3) (rng ()) in
  let flat_s = time_median (fun () -> ignore (Lw_pir.Server.answer flat key)) in
  let flat_answer = Lw_pir.Server.answer flat key in
  row "%-10s %-10s %-16s %-18s %-10s\n" "shards" "split" "max shard time" "sum shard time" "correct";
  row "%-10s %-10s %13.2f ms %15.2f ms %-10s\n" "1 (flat)" "-" (1000. *. flat_s) (1000. *. flat_s)
    "ref";
  let snap = Lw_store.current st in
  List.iter
    (fun shard_bits ->
      (* each shard answers its sub-key over its view with the same fused
         kernel as the flat row, as the front-end's shards do *)
      let rem = d - shard_bits in
      let acc = Bytes.make bucket_size '\x00' in
      let per_shard =
        Array.to_list
          (Array.mapi
             (fun i sub ->
               let shard =
                 Lw_pir.Server.of_snapshot
                   (Lw_store.Snapshot.sub snap ~base:(i lsl rem) ~domain_bits:rem)
               in
               let share = Lw_pir.Server.answer shard sub in
               Lw_util.Xorbuf.xor_string_into ~src:share ~src_pos:0 ~dst:acc ~dst_pos:0
                 ~len:bucket_size;
               time_median (fun () -> ignore (Lw_pir.Server.answer shard sub)))
             (Lw_dpf.Distributed.split key ~shard_bits))
      in
      let mx = List.fold_left Float.max 0. per_shard in
      let sum = List.fold_left ( +. ) 0. per_shard in
      row "%-10d %-10d %13.2f ms %15.2f ms %-10s\n" (1 lsl shard_bits) shard_bits (1000. *. mx)
        (1000. *. sum)
        (if String.equal (Bytes.to_string acc) flat_answer then "yes" else "NO!"))
    [ 1; 2; 3; 4 ];
  Printf.printf
    "\nmax-shard time (the fleet's critical path) drops ~2x per split level while the\n\
     total work stays flat or falls (smaller views stay in cache): the paper's\n\
     scale-out assumption holds.\n"

(* ------------------------------------------------------------------ *)
(* E8: PIR vs enclave mode (§2.2 ablation)                             *)
(* ------------------------------------------------------------------ *)

let e8_mode_ablation size =
  section "E8" "modes of operation: PIR linear scan vs enclave+ORAM polylog (§2.2)";
  let sizes = if size = Fast then [ 8; 10; 12 ] else [ 8; 10; 12; 14 ] in
  row "%-10s %-18s %-18s %-16s %-14s\n" "N pairs" "PIR answer" "enclave get" "PIR buckets"
    "ORAM buckets";
  List.iter
    (fun d ->
      let n = 1 lsl d in
      let bucket_size = 256 in
      let st = random_store ~domain_bits:d ~bucket_size "e8" in
      let server = whole_server st in
      let key, _ = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:(n / 2) (rng ()) in
      let pir_s = time_median ~reps:3 (fun () -> ignore (Lw_pir.Server.answer server key)) in
      let enclave = Lw_oram.Enclave.create ~capacity:n ~value_size:64 () in
      for i = 0 to min 511 (n - 1) do
        ignore (Lw_oram.Enclave.put enclave ~key:(Printf.sprintf "k%d" i) ~value:"v")
      done;
      let enc_s =
        time_median ~reps:3 (fun () ->
            for i = 0 to 49 do
              ignore (Lw_oram.Enclave.get enclave (Printf.sprintf "k%d" (i mod 512)))
            done)
        /. 50.
      in
      row "2^%-8d %13.3f ms %15.4f ms %13d %13d\n" d (1000. *. pir_s) (1000. *. enc_s) n
        (4 * Lw_oram.Enclave.accesses_per_get enclave))
    sizes;
  Printf.printf
    "\nPIR cost grows linearly with N; enclave cost grows with log N (tree height).\n\
     The price: trusting the enclave vendor (§2.2 lists the attack literature).\n"

(* ------------------------------------------------------------------ *)
(* E9: looking forward (§5.2)                                          *)
(* ------------------------------------------------------------------ *)

let e9_projection (_ : size) =
  section "E9" "cost projection: 16x per 5 years of compute deflation (§5.2)";
  let open Lw_sim in
  let e =
    Cost_model.estimate (Cost_model.of_profile Corpus.c4) Cost_model.paper_shard
      Cost_model.c5_large
  in
  let c0 = e.Cost_model.request_cost_usd in
  row "%-8s %-16s %-16s\n" "years" "request cost" "monthly user";
  List.iter
    (fun y ->
      let c = Cost_model.projected_cost ~years:(float_of_int y) c0 in
      row "%-8d $%-15.6f $%-15.3f\n" y c
        (Cost_model.monthly_user_cost Cost_model.paper_user ~request_cost_usd:c))
    [ 0; 5; 10; 15 ];
  Printf.printf
    "\npaper: \"in 5 years ... the dollar cost of a ZLTP request [could] drop by an\n\
     order of magnitude\" — at 16x/5yr the factor is %.0fx.\n"
    (c0 /. Cost_model.projected_cost ~years:5. c0)

(* ------------------------------------------------------------------ *)
(* E10: traffic analysis (§1 motivation)                               *)
(* ------------------------------------------------------------------ *)

let e10_traffic_analysis size =
  section "E10" "website fingerprinting: traditional web vs lightweb (§1)";
  let open Lw_sim in
  let labelled ~sites ~per_site ~seed ~traditional =
    let r = det seed in
    List.concat_map
      (fun site ->
        List.init per_site (fun i ->
            ( site,
              if traditional then Fingerprint.traditional_trace ~sites ~site r
              else Fingerprint.lightweb_trace ~code_fetch:(i = 0) r )))
      (List.init sites (fun s -> s))
  in
  row "%-14s %-8s %-12s %-12s %-10s\n" "traffic" "sites" "accuracy" "chance" "advantage";
  let bars = ref [] in
  List.iter
    (fun (name, traditional) ->
      List.iter
        (fun sites ->
          let train =
            labelled ~sites ~per_site:(if size = Fast then 20 else 40) ~seed:"tr" ~traditional
          in
          let test = labelled ~sites ~per_site:10 ~seed:"te" ~traditional in
          let model = Fingerprint.train ~classes:sites train in
          let acc = Fingerprint.accuracy model test in
          let chance = Fingerprint.chance ~classes:sites in
          bars := (Printf.sprintf "%s/%d sites" name sites, 100. *. acc) :: !bars;
          row "%-14s %-8d %9.1f%% %10.1f%% %9.1fx\n" name sites (100. *. acc) (100. *. chance)
            (acc /. chance))
        [ 10; 25 ])
    [ ("traditional", true); ("lightweb", false) ];
  Printf.printf "\nclassifier accuracy (%%):\n%s" (Lw_repro.Ascii_chart.bar ~unit_:"%" (List.rev !bars))

(* ------------------------------------------------------------------ *)
(* E11: PIR scheme ablation — DPF vs bit-vector vs trivial             *)
(* ------------------------------------------------------------------ *)

let e11_scheme_ablation size =
  section "E11" "ablation: DPF PIR vs bit-vector PIR vs trivial download";
  Printf.printf
    "why DPFs: same scan and download, logarithmic upload. (The paper's choice of\n\
     [12] over earlier 2-server schemes.)\n\n";
  let d = if size = Fast then 10 else 12 in
  let bucket_size = 4096 in
  let st = random_store ~domain_bits:d ~bucket_size "e11" in
  let server = whole_server st in
  let index = (1 lsl d) / 3 in
  let dpf_key, _ = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:index (rng ()) in
  let bv = Lw_repro.Bitvec_pir.query ~domain_bits:d ~index (rng ()) in
  let t_dpf = time_median (fun () -> ignore (Lw_pir.Server.answer server dpf_key)) in
  let snap = Lw_store.current st in
  let t_bv = time_median (fun () -> ignore (Lw_repro.Bitvec_pir.answer snap bv.Lw_repro.Bitvec_pir.q0)) in
  let t_triv = time_median (fun () -> ignore (Lw_repro.Baselines.trivial_fetch snap index)) in
  let n = 1 lsl d in
  row "%-22s %-14s %-16s %-16s %-10s\n" "scheme" "server time" "upload" "download" "private";
  row "%-22s %9.2f ms %12d B %12d B %-10s\n" "two-server DPF" (1000. *. t_dpf)
    (2 * Lw_dpf.Dpf.serialized_size ~domain_bits:d)
    (2 * bucket_size) "yes";
  row "%-22s %9.2f ms %12d B %12d B %-10s\n" "two-server bit-vector" (1000. *. t_bv)
    (2 * Lw_repro.Bitvec_pir.upload_bytes ~domain_bits:d)
    (2 * bucket_size) "yes";
  row "%-22s %9.2f ms %12d B %12d B %-10s\n" "trivial (download all)" (1000. *. t_triv) 0
    (n * bucket_size) "yes";
  row "%-22s %9.2f ms %12d B %12d B %-10s\n" "direct GET" 0.0 8 bucket_size "NO";
  (* at the paper's scale the gap is decisive *)
  Printf.printf
    "\nat the paper's d=22: DPF upload %d B vs bit-vector %d B per server (%.0fx)\n"
    (Lw_dpf.Dpf.serialized_size ~domain_bits:22)
    (Lw_repro.Bitvec_pir.upload_bytes ~domain_bits:22)
    (float_of_int (Lw_repro.Bitvec_pir.upload_bytes ~domain_bits:22)
    /. float_of_int (Lw_dpf.Dpf.serialized_size ~domain_bits:22))

(* ------------------------------------------------------------------ *)
(* E12: PRG ablation inside the DPF                                    *)
(* ------------------------------------------------------------------ *)

(* E12's second part: the secure channel's primitives and the client's
   key generation, each per operation: a ChaCha20 keystream on every
   build (after checking they agree byte for byte), AEAD seal and open
   at a wire frame's and a page's size, one X25519 shared secret, and
   one [Dpf.gen] pair per domain width. *)
let e12_channel size =
  (* the AES cells, which run first, leave megabytes of garbage behind;
     start from a compacted heap, so the major collector's work on that
     garbage is not charged to these cells *)
  Gc.compact ();
  let smoke = size = Smoke in
  let reps = if smoke then 1 else 5 in
  let per ~iters f =
    let iters = if smoke then 1 else iters in
    time_median ~reps (fun () ->
        for _ = 1 to iters do
          f ()
        done)
    /. float_of_int iters
  in
  let key = Lw_crypto.Sha256.digest "e12-channel" and nonce = "e12-nonce-12" in
  (* every ChaCha20 build gives the same bytes over every batch/tail
     split (the @bench-smoke run fails on any difference) *)
  let chacha_builds = Lw_crypto.Chacha20.builds () in
  let msg = Lw_util.Det_rng.bytes (det "e12-chacha") 2200 in
  let stream build =
    String.concat ""
      (List.init 70 (fun i ->
           Lw_crypto.Chacha20.encrypt_on ~build ~key ~nonce ~counter:0xfffffff0l
             (String.sub msg 0 (i * 31))))
  in
  let want = stream (List.hd chacha_builds) in
  List.iter
    (fun build ->
      if not (String.equal want (stream build)) then
        failwith
          (Printf.sprintf "E12: ChaCha20 build %s differs from %s" build (List.hd chacha_builds)))
    chacha_builds;
  row "\nChaCha20 builds on this CPU: %s (picked: %s); keystreams identical\n"
    (String.concat ", " chacha_builds) (Lw_crypto.Chacha20.build ());
  (* 64 KiB: cache-resident, and small enough that the fresh result
     string reuses freed heap rather than faulting in new pages *)
  let ks_len = if smoke then 4096 else 1 lsl 16 in
  let zeros = String.make ks_len '\x00' in
  List.iter
    (fun build ->
      let t_ks =
        per ~iters:64 (fun () -> ignore (Lw_crypto.Chacha20.encrypt_on ~build ~key ~nonce zeros))
      in
      row "%-34s %10.3f GB/s\n" (Printf.sprintf "chacha20 keystream, %s (%d B)" build ks_len)
        (float_of_int ks_len /. t_ks /. 1e9))
    chacha_builds;
  List.iter
    (fun len ->
      let pt = Lw_util.Det_rng.bytes (det "e12-aead") len in
      let sealed = Lw_crypto.Aead.seal ~key ~nonce pt in
      let t_seal = per ~iters:20 (fun () -> ignore (Lw_crypto.Aead.seal ~key ~nonce pt)) in
      let t_open = per ~iters:20 (fun () -> ignore (Lw_crypto.Aead.open_ ~key ~nonce sealed)) in
      row "%-34s %10.2f us\n" (Printf.sprintf "aead seal (%d B)" len) (1e6 *. t_seal);
      row "%-34s %10.2f us\n" (Printf.sprintf "aead open (%d B)" len) (1e6 *. t_open))
    [ 1344; 41034 ];
  let a = Lw_crypto.X25519.keypair (rng ()) in
  let b = Lw_crypto.X25519.keypair (Lw_crypto.Drbg.create ~seed:"e12-peer") in
  let t_dh =
    per ~iters:20 (fun () ->
        ignore (Lw_crypto.X25519.shared_secret ~secret:a.secret ~public:b.public))
  in
  row "%-34s %10.2f us\n" "x25519 shared secret" (1e6 *. t_dh);
  let g = rng () in
  List.iter
    (fun d ->
      let t = per ~iters:500 (fun () -> ignore (Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:5 g)) in
      row "%-34s %10.2f us\n" (Printf.sprintf "dpf gen pair d=%d" d) (1e6 *. t))
    [ 8; 10; 12; 22 ]

(* E12's third part: the wire trailer's CRC-32 on every build, after
   checking they agree on every length up to 300 at every offset 0-15
   and on a 20,517-byte batch reply (the @bench-smoke run fails on any
   difference); then each build's rate at a small frame's, a share's and
   a width-5 batch reply's size. *)
let e12_crc size =
  let smoke = size = Smoke in
  let builds = Lw_util.Crc32.builds () in
  let s = Lw_util.Det_rng.bytes (det "e12-crc") (20517 + 16) in
  let crcs build =
    List.init 16 (fun pos ->
        List.init 301 (fun len -> Lw_util.Crc32.update_on ~build 0l s ~pos ~len))
    @ [ [ Lw_util.Crc32.update_on ~build 0l s ~pos:3 ~len:20517 ] ]
  in
  let want = crcs (List.hd builds) in
  List.iter
    (fun build ->
      if not (List.equal (List.equal Int32.equal) want (crcs build)) then
        failwith (Printf.sprintf "E12: CRC-32 build %s differs from %s" build (List.hd builds)))
    builds;
  row "\nCRC-32 builds on this CPU: %s (picked: %s); CRCs identical\n" (String.concat ", " builds)
    (Lw_util.Crc32.build ());
  let reps = if smoke then 1 else 5 in
  List.iter
    (fun build ->
      List.iter
        (fun len ->
          let iters = max 16 ((1 lsl if smoke then 16 else 24) / len) in
          let t =
            time_median ~reps (fun () ->
                for _ = 1 to iters do
                  ignore (Lw_util.Crc32.update_on ~build 0l s ~pos:0 ~len)
                done)
            /. float_of_int iters
          in
          row "%-34s %10.3f GB/s %8.2f us\n" (Printf.sprintf "crc32, %s (%d B)" build len)
            (float_of_int len /. t /. 1e9) (1e6 *. t))
        [ 256; 4096; 20480 ])
    builds

(* Every AES build this CPU runs must give the same bytes for a level
   call, a leaves call and plain block encryption (the @bench-smoke run
   fails on any difference); then each is timed per node, and the
   picked build per DPF operation. *)
let e12_prg_ablation size =
  section "E12" "ablation: the DPF's AES-MMO PRG, build by build";
  let builds = Lw_crypto.Aes128.builds () in
  let key = Lw_crypto.Aes128.mmo_fixed_key in
  let n = if size = Smoke then 33 else 1024 in
  let src = Bytes.of_string (Lw_util.Det_rng.bytes (det "e12-seeds") (16 * n)) in
  let ts = Bytes.of_string (Lw_util.Det_rng.bytes (det "e12-bits") n) in
  Bytes.iteri (fun i c -> Bytes.set ts i (Char.chr (Char.code c land 1))) ts;
  let cw = Bytes.of_string (Lw_util.Det_rng.bytes (det "e12-cw") 16) in
  let dst = Bytes.create (32 * n) and t_out = Bytes.create (2 * n) in
  let leaf_bits = Bytes.create (128 * n) in
  let level build () =
    Lw_crypto.Aes128.mmo_level_on ~build key ~src ~src_pos:0 ~ts ~ts_pos:0 ~n ~cw ~cw_pos:0
      ~cw_bits:3 ~dst ~t_out
  in
  let leaves build () =
    Lw_crypto.Aes128.mmo_leaves_on ~build key ~src ~src_pos:0 ~ts ~ts_pos:0 ~n
      ~cw:(Bytes.to_string cw) ~from:0 ~count:128 ~dst:leaf_bits ~dst_pos:0
  in
  let blocks build () =
    Lw_crypto.Aes128.encrypt_blocks_on ~build key ~src ~src_pos:0 ~dst ~dst_pos:0 ~blocks:n
  in
  let outputs build =
    level build ();
    let l = Bytes.to_string dst ^ Bytes.to_string t_out in
    leaves build ();
    let v = Bytes.to_string leaf_bits in
    blocks build ();
    [ ("level", l); ("leaves", v); ("blocks", Bytes.sub_string dst 0 (16 * n)) ]
  in
  let want = outputs (List.hd builds) in
  List.iter
    (fun build ->
      List.iter2
        (fun (what, w) (_, got) ->
          if not (String.equal w got) then
            failwith
              (Printf.sprintf "E12: AES build %s differs from %s (%s call)" build
                 (List.hd builds) what))
        want (outputs build))
    builds;
  row "AES builds on this CPU: %s (picked: %s); level, leaves and block outputs identical\n\n"
    (String.concat ", " builds) (Lw_crypto.Aes128.build ());
  let reps = if size = Smoke then 1 else 5 in
  row "%-12s %-18s %-18s %-18s\n" "aes build" "level (per parent)" "leaves (per node)"
    "block (per block)";
  List.iter
    (fun build ->
      let per f = 1e9 *. time_median ~reps f /. float_of_int n in
      row "%-12s %15.1f ns %15.1f ns %15.1f ns\n" build (per (level build)) (per (leaves build))
        (per (blocks build)))
    builds;
  let d = if size = Smoke then 8 else if size = Fast then 10 else 12 in
  row "\n%-12s %-16s %-18s %-16s\n" "prg" "expand (1 node)" "eval_all 2^\u{2009}d" "keygen d=22";
  let seed = Bytes.of_string (String.sub (Lw_crypto.Sha256.digest "e12") 0 16) in
  let out = Bytes.create 32 in
  let t_expand =
    time_median ~reps (fun () ->
        for _ = 1 to 1000 do
          ignore (Lw_dpf.Prg.expand_into ~src:seed ~src_pos:0 ~dst:out ~dst_pos:0)
        done)
    /. 1000.
  in
  let key, _ = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:7 (rng ()) in
  let t_eval = time_median ~reps:3 (fun () -> Lw_dpf.Dpf.eval_all_bits key (fun _ _ -> ())) in
  let t_gen =
    time_median ~reps:3 (fun () -> ignore (Lw_dpf.Dpf.gen ~domain_bits:22 ~alpha:1 (rng ())))
  in
  row "%-12s %11.0f ns %13.3f ms %12.3f ms\n" "aes-mmo" (1e9 *. t_expand) (1000. *. t_eval)
    (1000. *. t_gen);
  Printf.printf
    "\n(a single expand_into pays one OCaml->C crossing per AES call; the DPF's\n\
     evaluators cross once per tree level, which the per-parent level column\n\
     measures.)\n";
  e12_channel size;
  e12_crc size

(* ------------------------------------------------------------------ *)
(* E13: cover-traffic cost (closing the timing side channel)           *)
(* ------------------------------------------------------------------ *)

let e13_cover_traffic (_ : size) =
  section "E13" "extension: constant-rate cover traffic vs the timing leak (§2.1 non-goal)";
  Printf.printf
    "ZLTP leaves request count/timing visible; a pacer closes that channel for a\n\
     dummy-traffic budget. Cost curve for a day of the paper-user's browsing:\n\n";
  let u = Lw_sim.Cost_model.paper_user in
  let horizon_s = 86400. in
  (* 50 pages spread over 16 active hours *)
  let det_rng = det "e13" in
  let visits =
    List.init (int_of_float u.Lw_sim.Cost_model.pages_per_day) (fun i ->
        (Lw_util.Det_rng.float det_rng (16. *. 3600.), Printf.sprintf "page-%d" i))
  in
  let e =
    Lw_sim.Cost_model.estimate
      (Lw_sim.Cost_model.of_profile Lw_sim.Corpus.c4)
      Lw_sim.Cost_model.paper_shard Lw_sim.Cost_model.c5_large
  in
  row "%-14s %-10s %-10s %-14s %-14s %-16s\n" "slot" "real" "dummies" "mean delay" "max delay"
    "monthly cost";
  List.iter
    (fun slot_s ->
      let schedule = Lightweb.Pacer.pace ~slot_s ~horizon_s visits in
      let st = Lightweb.Pacer.stats ~slot_s visits schedule in
      let monthly =
        float_of_int st.Lightweb.Pacer.slots *. 30.
        *. float_of_int u.Lw_sim.Cost_model.gets_per_page
        *. e.Lw_sim.Cost_model.request_cost_usd
      in
      row "%9.0f s   %-10d %-10d %10.1f s %11.1f s $%-15.2f\n" slot_s st.Lightweb.Pacer.real
        st.Lightweb.Pacer.dummies st.Lightweb.Pacer.mean_delay_s st.Lightweb.Pacer.max_delay_s
        monthly)
    [ 120.; 300.; 600.; 900. ];
  Printf.printf
    "\nperfect timing privacy at a 10-min slot costs ~%.1fx the unpadded bill — the\n\
     quantified version of the paper's \"even this leakage is modest\" discussion.\n\
     (slot rates must stay above the request rate or the queue saturates)\n"
    (86400. /. 600. *. 30. *. 5. *. e.Lw_sim.Cost_model.request_cost_usd
    /. Lw_sim.Cost_model.monthly_user_cost u
         ~request_cost_usd:e.Lw_sim.Cost_model.request_cost_usd)

(* ------------------------------------------------------------------ *)
(* E14: recursive ORAM overhead                                        *)
(* ------------------------------------------------------------------ *)

let e14_recursive_oram size =
  section "E14" "extension: recursive position map (real enclave memory budgets)";
  Printf.printf
    "flat Path ORAM needs O(N) private memory for the position map; recursion\n\
     trades that for one extra path per level.\n\n";
  row "%-10s %-10s %-14s %-14s %-16s\n" "N" "levels" "paths/access" "flat get" "recursive get";
  List.iter
    (fun cap_bits ->
      let n = 1 lsl cap_bits in
      let flat = Lw_oram.Path_oram.create ~capacity:n ~block_size:32 (rng ()) in
      let rec_o = Lw_repro.Recursive_oram.create ~top_threshold:16 ~capacity:n ~block_size:32 (rng ()) in
      for i = 0 to min 255 (n - 1) do
        Lw_oram.Path_oram.write flat i "x";
        Lw_repro.Recursive_oram.write rec_o i "x"
      done;
      let t_flat =
        time_median ~reps:3 (fun () ->
            for i = 0 to 49 do
              ignore (Lw_oram.Path_oram.read flat (i mod 256))
            done)
        /. 50.
      in
      let t_rec =
        time_median ~reps:3 (fun () ->
            for i = 0 to 49 do
              ignore (Lw_repro.Recursive_oram.read rec_o (i mod 256))
            done)
        /. 50.
      in
      row "2^%-8d %-10d %-14d %11.4f ms %13.4f ms\n" cap_bits
        (Lw_repro.Recursive_oram.levels rec_o)
        (Lw_repro.Recursive_oram.paths_per_access rec_o)
        (1000. *. t_flat) (1000. *. t_rec))
    (if size = Fast then [ 8; 10 ] else [ 8; 10; 12 ])

(* ------------------------------------------------------------------ *)
(* E15: page-load latency at fleet scale (§5.2's caveat, quantified)    *)
(* ------------------------------------------------------------------ *)

let e15_latency size =
  section "E15" "page-load latency with stragglers and queueing (§5.2)";
  Printf.printf
    "paper: \"request latency ... is lower-bounded by 2.6 s ... but would likely be\n\
     higher due to network latency, front-end server latency, and data-server\n\
     stragglers.\" Monte-Carlo over the 305-shard fleet:\n\n";
  let open Lw_repro in
  row "%-34s %-10s %-10s %-10s %-10s\n" "scenario" "mean" "p50" "p95" "p99";
  let show label p ~code_fetch =
    let d = Latency_model.simulate ~samples:(if size = Fast then 500 else 2000) p ~code_fetch (det "e15") in
    row "%-34s %7.2f s %7.2f s %7.2f s %7.2f s\n" label d.Latency_model.mean_s
      d.Latency_model.p50_s d.Latency_model.p95_s d.Latency_model.p99_s
  in
  show "warm cache, parallel GETs" Latency_model.paper_params ~code_fetch:false;
  show "cold cache (+ code fetch)" Latency_model.paper_params ~code_fetch:true;
  show "no stragglers (sigma=0)"
    { Latency_model.paper_params with Latency_model.straggler_sigma = 0. }
    ~code_fetch:false;
  show "heavy stragglers (sigma=0.5)"
    { Latency_model.paper_params with Latency_model.straggler_sigma = 0.5 }
    ~code_fetch:false;
  show "sequential GETs"
    { Latency_model.paper_params with Latency_model.parallel_gets = false }
    ~code_fetch:false;
  show "small fleet (15 shards, wiki)"
    { Latency_model.paper_params with Latency_model.shards = 15 }
    ~code_fetch:false;
  (* the "figure": the warm-cache page-load CDF *)
  let rng' = det "e15-cdf" in
  let samples =
    Array.init (if size = Fast then 400 else 1500) (fun _ ->
        Latency_model.page_load Latency_model.paper_params ~code_fetch:false rng')
  in
  Printf.printf "\nwarm-cache page-load CDF (x in seconds):\n%s"
    (Lw_repro.Ascii_chart.cdf ~width:60 ~height:10 samples);
  Printf.printf
    "\nthe 2.6 s floor is indeed the right order; the max-over-305-shards barrier\n\
     adds a straggler tail exactly as the paper anticipates.\n"

(* ------------------------------------------------------------------ *)
(* E16: private per-domain billing statistics (§4)                     *)
(* ------------------------------------------------------------------ *)

let e16_heavy_hitters size =
  section "E16" "private aggregate statistics for billing (§4)";
  Printf.printf
    "the CDN bills publishers by query volume without seeing queries: clients\n\
     submit incremental-DPF shares; two aggregation servers descend the prefix\n\
     tree on combined counts only.\n\n";
  let open Lw_sim in
  let open Lw_repro in
  let d = if size = Fast then 8 else 10 in
  let sites = 40 in
  let zipf = Zipf.create ~n:sites () in
  let hash = Lw_pir.Keymap.create ~hash_key:(String.make 16 'b') ~domain_bits:d in
  let r = det "e16" in
  let n_clients = if size = Fast then 120 else 300 in
  let queries =
    List.init n_clients (fun _ ->
        Lw_pir.Keymap.index_of_key hash (Printf.sprintf "site-%d.example" (Zipf.sample zipf r)))
  in
  let crng = rng () in
  let t0 = Unix.gettimeofday () in
  let contributions =
    List.map (fun alpha -> Heavy_hitters.contribute ~domain_bits:d ~alpha crng) queries
  in
  let t1 = Unix.gettimeofday () in
  let threshold = Int64.of_int (n_clients / 20) in
  let hitters = Heavy_hitters.collect ~domain_bits:d ~threshold contributions in
  let t2 = Unix.gettimeofday () in
  let lv = Heavy_hitters.leaves ~domain_bits:d hitters in
  Printf.printf "%d clients, 2^%d key domain, threshold %Ld:\n" n_clients d threshold;
  row "%-14s %-10s\n" "domain hash" "queries";
  List.iter
    (fun h -> row "0x%-12x %-10Ld\n" h.Heavy_hitters.prefix h.Heavy_hitters.count)
    (List.sort (fun a b -> compare b.Heavy_hitters.count a.Heavy_hitters.count) lv);
  let truth = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace truth q (1 + Option.value ~default:0 (Hashtbl.find_opt truth q))) queries;
  let exact =
    List.for_all
      (fun h -> Hashtbl.find_opt truth h.Heavy_hitters.prefix = Some (Int64.to_int h.Heavy_hitters.count))
      lv
  in
  Printf.printf
    "\ncounts exact: %b | keygen %.1f ms/client | descent %.0f ms total (%d prefixes kept)\n"
    exact
    (1000. *. (t1 -. t0) /. float_of_int n_clients)
    (1000. *. (t2 -. t1))
    (List.length hitters)

(* ------------------------------------------------------------------ *)
(* E17: the batch-queue operating curve (§5.1's batching, under load)  *)
(* ------------------------------------------------------------------ *)

let e17_queue (_ : size) =
  section "E17" "batch-service queue: the §5.1 server under offered load";
  let open Lw_repro in
  let cap = Queue_sim.capacity_rps (Queue_sim.paper_server ~arrival_rps:1.) in
  Printf.printf
    "service model fitted to the paper's measurements (0.51 s unbatched, 2.67 s per\n\
     16-batch) -> capacity %.1f req/s, the paper's batch-16 throughput.\n\n"
    cap;
  row "%-12s %-12s %-12s %-12s %-12s %-12s\n" "load (rps)" "throughput" "p50 lat" "p95 lat"
    "batch fill" "state";
  let curve = ref [] in
  List.iter
    (fun rps ->
      let r = Queue_sim.run (Queue_sim.paper_server ~arrival_rps:rps) (det "e17") in
      if not r.Queue_sim.saturated then curve := (rps, r.Queue_sim.p50_latency_s) :: !curve;
      row "%-12.1f %8.2f rps %9.2f s %9.2f s %10.1f %-12s\n" rps r.Queue_sim.throughput_rps
        r.Queue_sim.p50_latency_s r.Queue_sim.p95_latency_s r.Queue_sim.mean_batch_fill
        (if r.Queue_sim.saturated then "SATURATED" else "stable"))
    [ 0.5; 1.; 2.; 3.; 4.; 5.; 5.5; 5.8; 7.; 10. ];
  Printf.printf "\np50 latency vs offered load (stable region):\n%s"
    (Lw_repro.Ascii_chart.line ~width:60 ~height:10 ~x_label:"offered load (req/s)"
       ~y_label:"p50 latency (s)" (List.rev !curve));
  Printf.printf
    "\nthe classic batch-queue shape: a ~3 s latency floor from the batch window at\n\
     low load, graceful filling up to the %.1f req/s ceiling, then saturation —\n\
     matching the paper's latency/throughput trade-off discussion.\n"
    cap

(* ------------------------------------------------------------------ *)
(* E19: fused single-pass answer kernel + batched C scan kernel         *)
(* ------------------------------------------------------------------ *)

(* Machine noise on shared hardware swings memory bandwidth between
   runs, so old/new pairs are timed interleaved — every repetition times
   each contender once, back to back — and the best repetition of each
   is reported. The comparison is the seed's two-pass path (eval_bits
   into a full-domain buffer, then the masked scalar scan) against the
   production kernels: the fused blocked single pass behind
   [Server.answer] and the batch scan behind
   [Server.answer_batch], which a batch of k is also weighed against k
   single answers. Before any timing, every fused answer must equal the
   two-pass reference and every batch the k single answers, byte for
   byte, and every kernel build the CPU runs must agree with the others:
   under @bench-smoke that makes E19 an identity gate on whichever build
   the runner's CPU picks. *)
let best_interleaved reps fs =
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        let t = snd (time_once f) in
        if t < best.(i) then best.(i) <- t)
      fs
  done;
  best

(* Sparse records, by default at the reference corpus's load: perfbench's
   browse corpus fills 38-39% of its 4 KiB buckets, and 9.0-9.5% of its
   bytes lie below each bucket's last non-zero byte rounded up to 64 B.
   Record [j] is filled with probability [filled] (0.385); a filled one
   holds random bytes over a length uniform in [1, 2m], capped at the
   bucket, m the mean that puts a share [bytes] (0.093) of the bytes in
   records. [f j len] receives each filled record. *)
let sparse_records ?(filled = 0.385) ?(bytes = 0.093) rng ~count ~bucket f =
  let mean = bytes /. filled *. float_of_int bucket in
  for j = 0 to count - 1 do
    if Lw_util.Det_rng.int rng 1000 < int_of_float (1000. *. filled) then
      f j (min bucket (1 + Lw_util.Det_rng.int rng (max 1 (int_of_float (2. *. mean)))))
  done

let e19_scan_kernels size =
  section "E19" "fused single-pass answer kernel + batched C scan kernel";
  let d, bucket_size, reps =
    match size with Smoke -> (6, 96, 2) | Fast -> (10, 1024, 3) | Full -> (12, 4096, 25)
  in
  let widths = [ 1; 2; 3; 5; 8; 9; 16 ] in
  let st = random_store ~domain_bits:d ~bucket_size "e19" in
  let server = whole_server st in
  let drbg = rng () in
  let keys =
    Array.init (List.fold_left max 1 widths) (fun i ->
        let alpha = (i * 37) land ((1 lsl d) - 1) in
        let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha drbg in
        if i land 1 = 0 then k0 else k1)
  in
  let db_mb = float_of_int (Lw_store.total_bytes st) /. 1048576. in
  let reference k = Lw_pir.Server.scan server (Lw_pir.Server.eval_bits server k) in
  let two_pass k = ignore (reference k) in
  (* the harness holds both DPF shares by design, so comparing
     key-derived answers is a check, not a leak *)
  let singles = Array.map (Lw_pir.Server.answer server) keys in
  (* lw-lint: allow taint lines=2 *)
  if not (Array.for_all2 String.equal singles (Array.map reference keys)) then
    failwith "E19: a fused answer differs from the two-pass reference";
  List.iter
    (fun w ->
      let batch = Lw_pir.Server.answer_batch server (Array.sub keys 0 w) in
      (* lw-lint: allow taint lines=2 *)
      if not (Array.for_all2 String.equal batch (Array.sub singles 0 w)) then
        failwith (Printf.sprintf "E19: a width-%d batch share differs from its single answer" w))
    widths;
  row "kernel build: %s; fused = two-pass and batch = k singles, byte for byte\n"
    (Lw_util.Xorbuf.scan_kernel ());
  row "geometry: 2^%d buckets x %d B = %.0f MiB, best of %d interleaved reps\n\n" d
    bucket_size db_mb reps;

  (* single query: two-pass reference vs fused one-pass *)
  let t = best_interleaved reps [| (fun () -> two_pass keys.(0));
                                   (fun () -> ignore (Lw_pir.Server.answer server keys.(0))) |] in
  let old_s = t.(0) and fused_s = t.(1) in
  row "%-22s %10s %14s %10s\n" "single query" "time" "scan rate" "speedup";
  row "%-22s %7.2f ms %9.0f MB/s %10s\n" "two-pass reference" (1000. *. old_s) (db_mb /. old_s) "1.00x";
  row "%-22s %7.2f ms %9.0f MB/s %9.2fx\n" "fused one-pass" (1000. *. fused_s)
    (db_mb /. fused_s) (old_s /. fused_s);

  (* batches: naive per-query two-pass loop and k fused single answers vs
     the batched scan *)
  row "\n%-8s %-14s %-14s %-14s %-18s %-10s %-10s\n" "width" "naive loop" "k singles" "batched"
    "effective rate" "speedup" "x single";
  let batch_rows =
    List.map
      (fun w ->
        let ks = Array.sub keys 0 w in
        let t =
          best_interleaved reps
            [| (fun () -> Array.iter two_pass ks);
               (fun () -> Array.iter (fun k -> ignore (Lw_pir.Server.answer server k)) ks);
               (fun () -> ignore (Lw_pir.Server.answer_batch server ks)) |]
        in
        let naive_s = t.(0) and singles_s = t.(1) and batched_s = t.(2) in
        let eff = db_mb *. float_of_int w /. batched_s in
        row "%-8d %9.2f ms %9.2f ms %9.2f ms %12.0f MB/s %8.2fx %8.2fx\n" w (1000. *. naive_s)
          (1000. *. singles_s) (1000. *. batched_s) eff (naive_s /. batched_s)
          (batched_s *. float_of_int w /. singles_s);
        (w, naive_s, singles_s, batched_s, eff))
      widths
  in
  Printf.printf
    "\nthe fused kernel streams each database block as its DPF leaf bits are produced\n\
     (no full-domain bits buffer); single and batched answers run one C kernel that\n\
     makes one pass over each block, masking every record into all k accumulators.\n\
     Effective rate = width x DB size / time; x single = batched time over one single\n\
     answer (k singles / k).\n";

  (* The same answers over a sparse store at the reference corpus's
     load, each bucket read up to its extent, against a full store of
     the same geometry, interleaved. Buckets under
     [Lw_store.whole_scan_below] are read whole, so a smaller bucket
     size takes the smallest that is not. Every sparse answer must equal
     the two-pass reference (which reads whole buckets) and every batch
     its single answers, byte for byte. *)
  let sb = max bucket_size Lw_store.whole_scan_below in
  let full_server =
    if sb = bucket_size then server else whole_server (random_store ~domain_bits:d ~bucket_size:sb "e19")
  in
  let sparse_st = Lw_store.create ~domain_bits:d ~bucket_size:sb () in
  let sw = Lw_store.writer sparse_st in
  let srng = det "e19-sparse" in
  sparse_records srng ~count:(1 lsl d) ~bucket:sb (fun j len ->
      Lw_store.Writer.set sw j (Lw_util.Det_rng.bytes srng len));
  ignore (Lw_store.Writer.seal sw);
  let sparse_server = whole_server sparse_st in
  let sparse_singles = Array.map (Lw_pir.Server.answer sparse_server) keys in
  let sparse_reference k =
    Lw_pir.Server.scan sparse_server (Lw_pir.Server.eval_bits sparse_server k)
  in
  (* lw-lint: allow taint lines=2 *)
  if not (Array.for_all2 String.equal sparse_singles (Array.map sparse_reference keys)) then
    failwith "E19: a sparse-store answer differs from the two-pass reference";
  List.iter
    (fun w ->
      let batch = Lw_pir.Server.answer_batch sparse_server (Array.sub keys 0 w) in
      (* lw-lint: allow taint lines=2 *)
      if not (Array.for_all2 String.equal batch (Array.sub sparse_singles 0 w)) then
        failwith
          (Printf.sprintf "E19: a width-%d sparse-store batch share differs from its singles" w))
    widths;
  let scanned =
    float_of_int (Lw_store.Snapshot.scan_bytes (Lw_store.current sparse_st))
    /. float_of_int (Lw_store.total_bytes sparse_st)
  in
  row
    "\nsparse store at the reference load: 2^%d x %d B, %.1f%% of buckets filled, %.1f%% of \
     bytes scanned\n%-8s %12s %12s %10s\n"
    d sb
    (100. *. float_of_int (Lw_store.Snapshot.occupied (Lw_store.current sparse_st))
    /. float_of_int (1 lsl d))
    (100. *. scanned) "width" "full" "sparse" "sparse/full";
  let sparse_rows =
    List.map
      (fun w ->
        let ks = Array.sub keys 0 w in
        let t =
          best_interleaved reps
            [| (fun () -> ignore (Lw_pir.Server.answer_batch full_server ks));
               (fun () -> ignore (Lw_pir.Server.answer_batch sparse_server ks)) |]
        in
        row "%-8d %9.2f ms %9.2f ms %9.2fx\n" w (1000. *. t.(0)) (1000. *. t.(1)) (t.(1) /. t.(0));
        (w, t.(0), t.(1)))
      widths
  in

  (* The bare kernel on every build this CPU runs: one call over all
     records per width and bucket size, builds interleaved, each build's
     accumulators checked against the first's. Outside the smoke gate the
     bucket sizes are the perfbench workloads' (256 B for get-small, 4 KiB
     and 16 KiB for browse's data and code), each over the 2^d records;
     256 B also runs over 2^16 records (16 MiB), a store that streams
     from memory as the others do rather than sitting in cache. *)
  let kernels = Lw_util.Xorbuf.scan_kernels () in
  let kernel_geometries =
    if size = Smoke then [ (1 lsl d, bucket_size) ]
    else [ (1 lsl d, 256); (1 lsl 16, 256); (1 lsl d, 4096); (1 lsl d, 16384) ]
  in
  let max_records = List.fold_left (fun a (n, _) -> max a n) 0 kernel_geometries in
  let bits = Bytes.of_string (Lw_util.Det_rng.bytes (det "e19-bits") (2 * max_records)) in
  let build_rows =
    List.concat_map
      (fun (n, bucket) ->
        let records =
          Bytes.of_string (Lw_util.Det_rng.bytes (det "e19-records") (n * bucket))
        in
        row "\nkernel builds, one call over all %d records of %d B (ms)\n%-8s%s %15s\n" n bucket
          "width"
          (String.concat "" (List.map (Printf.sprintf " %10s") kernels))
          "baseline/picked";
        List.init 16 (fun i ->
            let w = i + 1 in
            let dsts = Array.init w (fun _ -> Bytes.create bucket) in
            let run kernel () =
              Lw_util.Xorbuf.xor_buckets_lanes_on ~kernel ~bits ~bits_pos:0 ~stride:n ~count:n
                ~src:records ~src_pos:0 ~bucket ~dsts
            in
            let outputs =
              List.map
                (fun kernel ->
                  Array.iter (fun d -> Bytes.fill d 0 bucket '\x00') dsts;
                  run kernel ();
                  Array.map Bytes.to_string dsts)
                kernels
            in
            List.iteri
              (fun j out ->
                if not (Array.for_all2 String.equal out (List.hd outputs)) then
                  failwith
                    (Printf.sprintf "E19: kernel build %s differs from %s at width %d"
                       (List.nth kernels j) (List.hd kernels) w))
              outputs;
            let t = best_interleaved reps (Array.of_list (List.map run kernels)) in
            let cells = Array.map (fun s -> Printf.sprintf " %10.2f" (1000. *. s)) t in
            row "%-8d%s %14.2fx\n" w
              (String.concat "" (Array.to_list cells))
              (t.(Array.length t - 1) /. t.(0));
            (n, bucket, w, t)))
      kernel_geometries
  in
  (* The bare kernel on the same geometries with sparse records at the
     reference load and their extents, every build interleaved. Each
     build's accumulators must equal the first build's and the
     whole-record kernel's over the same records, whose bytes past each
     extent are zero. *)
  let sparse_widths = [ 1; 2; 5; 8; 9; 16 ] in
  let sparse_build_rows =
    List.concat_map
      (fun (n, bucket) ->
        let records = Bytes.make (n * bucket) '\x00' and extents = Bytes.make (4 * n) '\x00' in
        let krng = det "e19-sparse-records" in
        let filled = ref 0 in
        sparse_records krng ~count:n ~bucket (fun j len ->
            Bytes.blit_string (Lw_util.Det_rng.bytes krng len) 0 records (j * bucket) len;
            let e = min bucket ((len + 63) land lnot 63) in
            filled := !filled + e;
            Bytes.set_int32_ne extents (4 * j) (Int32.of_int e));
        row "\nsparse records (%.1f%% of bytes up to the extents), one call over %d records of %d B (ms)\n%-8s%s %15s\n"
          (100. *. float_of_int !filled /. float_of_int (n * bucket))
          n bucket "width"
          (String.concat "" (List.map (Printf.sprintf " %10s") kernels))
          "baseline/picked";
        List.map
          (fun w ->
            let dsts = Array.init w (fun _ -> Bytes.create bucket) in
            let run kernel () =
              Lw_util.Xorbuf.xor_extents_lanes_on ~kernel ~extents ~extents_pos:0 ~bits ~bits_pos:0
                ~stride:n ~count:n ~src:records ~src_pos:0 ~bucket ~dsts
            in
            let output f =
              Array.iter (fun d -> Bytes.fill d 0 bucket '\x00') dsts;
              f ();
              Array.map Bytes.to_string dsts
            in
            let whole =
              output (fun () ->
                  Lw_util.Xorbuf.xor_buckets_lanes ~bits ~bits_pos:0 ~stride:n ~count:n
                    ~src:records ~src_pos:0 ~bucket ~dsts)
            in
            List.iter
              (fun kernel ->
                if not (Array.for_all2 String.equal (output (run kernel)) whole) then
                  failwith
                    (Printf.sprintf
                       "E19: kernel build %s over extents differs from whole records at width %d"
                       kernel w))
              kernels;
            let t = best_interleaved reps (Array.of_list (List.map run kernels)) in
            let cells = Array.map (fun s -> Printf.sprintf " %10.2f" (1000. *. s)) t in
            row "%-8d%s %14.2fx\n" w
              (String.concat "" (Array.to_list cells))
              (t.(Array.length t - 1) /. t.(0));
            (n, bucket, w, t))
          sparse_widths)
      kernel_geometries
  in
  (* The extent walk over two stores, each called in its [Lw_store]
     blocks as an answer makes, on every build, interleaved with the
     whole walk over the same records: the reference sparse store, and a
     mostly-full store of mixed record lengths (2^8 x 1 KiB, 80% of
     buckets filled, 44% of bytes up to the extents), where a walk that
     took a tile's differing extents one record at a time was slower than
     the whole walk. A timing repeats the walk until it has covered
     16 MiB of buckets, so the small store's cells are not down at the
     clock's microsecond, and reports one pass. Every build's extent walk
     must equal the whole walk byte for byte. *)
  let walk_stores =
    [ ("reference sparse", d, sb, 0.385, 0.093); ("mixed, 80% filled", 8, 1024, 0.8, 0.44) ]
  in
  let walk_rows =
    List.concat_map
      (fun (name, bits_n, bucket, filled, byte_share) ->
        let n = 1 lsl bits_n in
        let run = Lw_store.block_buckets (Lw_store.create ~domain_bits:bits_n ~bucket_size:bucket ()) in
        let records = Bytes.make (n * bucket) '\x00' and extents = Bytes.make (4 * n) '\x00' in
        let wrng = det ("e19-walk-" ^ name) in
        let bits = Bytes.of_string (Lw_util.Det_rng.bytes wrng (2 * n)) in
        let scanned = ref 0 in
        sparse_records ~filled ~bytes:byte_share wrng ~count:n ~bucket (fun j len ->
            Bytes.blit_string (Lw_util.Det_rng.bytes wrng len) 0 records (j * bucket) len;
            let e = min bucket ((len + 63) land lnot 63) in
            scanned := !scanned + e;
            Bytes.set_int32_ne extents (4 * j) (Int32.of_int e));
        let share = float_of_int !scanned /. float_of_int (n * bucket) in
        row "\n%s store, 2^%d x %d B in runs of %d, %.1f%% of bytes up to the extents: extent \
             walk / whole walk (ms)\n%-8s%s\n"
          name bits_n bucket run (100. *. share) "width"
          (String.concat "" (List.map (Printf.sprintf " %19s") kernels));
        List.map
          (fun w ->
            let dsts = Array.init w (fun _ -> Bytes.create bucket) in
            let in_runs call () =
              for b = 0 to (n / run) - 1 do
                call ~count:run ~off:(b * run)
              done
            in
            let passes = max 1 ((16 lsl 20) / (n * bucket)) in
            let timed walk () =
              for _ = 1 to passes do
                walk ()
              done
            in
            let extent_walk kernel =
              in_runs (fun ~count ~off ->
                  Lw_util.Xorbuf.xor_extents_lanes_on ~kernel ~extents ~extents_pos:(4 * off) ~bits
                    ~bits_pos:off ~stride:n ~count ~src:records ~src_pos:(off * bucket) ~bucket
                    ~dsts)
            and whole_walk kernel =
              in_runs (fun ~count ~off ->
                  Lw_util.Xorbuf.xor_buckets_lanes_on ~kernel ~bits ~bits_pos:off ~stride:n ~count
                    ~src:records ~src_pos:(off * bucket) ~bucket ~dsts)
            in
            let output f =
              Array.iter (fun d -> Bytes.fill d 0 bucket '\x00') dsts;
              f ();
              Array.map Bytes.to_string dsts
            in
            let whole = output (whole_walk (List.hd kernels)) in
            List.iter
              (fun kernel ->
                if
                  not
                    (Array.for_all2 String.equal (output (extent_walk kernel)) whole
                    && Array.for_all2 String.equal (output (whole_walk kernel)) whole)
                then
                  failwith
                    (Printf.sprintf "E19: kernel build %s's extent walk over the %s store differs \
                                     from the whole walk at width %d"
                       kernel name w))
              kernels;
            let t =
              Array.map
                (fun s -> s /. float_of_int passes)
                (best_interleaved reps
                   (Array.of_list
                      (List.concat_map
                         (fun k -> [ timed (extent_walk k); timed (whole_walk k) ])
                         kernels)))
            in
            row "%-8d%s\n" w
              (String.concat ""
                 (List.mapi
                    (fun i _ ->
                      Printf.sprintf " %8.4f / %8.4f" (1000. *. t.(2 * i)) (1000. *. t.((2 * i) + 1)))
                    kernels));
            (name, n, bucket, share, w, t))
          sparse_widths)
      walk_stores
  in
  let open Json in
  let build_cells rows =
    List
      (List.map
         (fun (n, bucket, w, t) ->
           Obj
             (("bucket_size", Number (float_of_int bucket))
             :: ("records", Number (float_of_int n))
             :: ("width", Number (float_of_int w))
             :: List.mapi (fun j k -> (k ^ "_ms", Number (1000. *. t.(j)))) kernels))
         rows)
  in
  write_bench size ~id:"E19" "BENCH_scan.json"
    [
      ("domain_bits", Number (float_of_int d));
      ("bucket_size", Number (float_of_int bucket_size));
      ("db_mib", Number db_mb);
      ("reps", Number (float_of_int reps));
      ( "single",
        Obj
          [
            ("two_pass_ms", Number (1000. *. old_s));
            ("fused_ms", Number (1000. *. fused_s));
            ("two_pass_mb_s", Number (db_mb /. old_s));
            ("fused_mb_s", Number (db_mb /. fused_s));
            ("fused_speedup", Number (old_s /. fused_s));
          ] );
      ( "batch",
        List
          (List.map
             (fun (w, naive_s, singles_s, batched_s, eff) ->
               Obj
                 [
                   ("width", Number (float_of_int w));
                   ("naive_ms", Number (1000. *. naive_s));
                   ("k_singles_ms", Number (1000. *. singles_s));
                   ("batched_ms", Number (1000. *. batched_s));
                   ("effective_mb_s", Number eff);
                   ("speedup", Number (naive_s /. batched_s));
                   ("x_single", Number (batched_s *. float_of_int w /. singles_s));
                 ])
             batch_rows) );
      ( "sparse_store",
        Obj
          [
            ("bucket_size", Number (float_of_int sb));
            ("scanned_share", Number scanned);
            ( "batch",
              List
                (List.map
                   (fun (w, full_s, sparse_s) ->
                     Obj
                       [
                         ("width", Number (float_of_int w));
                         ("full_ms", Number (1000. *. full_s));
                         ("sparse_ms", Number (1000. *. sparse_s));
                       ])
                   sparse_rows) );
          ] );
      ("kernel_builds", build_cells build_rows);
      ("sparse_kernel_builds", build_cells sparse_build_rows);
      ( "extent_walks",
        List
          (List.map
             (fun (name, n, bucket, share, w, t) ->
               Obj
                 (("store", String name)
                 :: ("bucket_size", Number (float_of_int bucket))
                 :: ("records", Number (float_of_int n))
                 :: ("scanned_share", Number share)
                 :: ("width", Number (float_of_int w))
                 :: List.concat
                      (List.mapi
                         (fun j k ->
                           [
                             (k ^ "_extent_ms", Number (1000. *. t.(2 * j)));
                             (k ^ "_whole_ms", Number (1000. *. t.((2 * j) + 1)));
                           ])
                         kernels)))
             walk_rows) );
    ]

(* ------------------------------------------------------------------ *)
(* E20: retry-induced tail latency under fault injection (PR3)          *)
(* ------------------------------------------------------------------ *)

(* Everything runs on ONE virtual clock: an endpoint wrapper charges a
   nominal RTT per successful reply and a full receive-timeout when the
   fault schedule swallows one, and the same clock drives the client's
   backoff sleeps. Per-op latency is then simply the clock delta around
   the private-GET — deterministic, seed-replayable, and finished in
   milliseconds of real time even for thousands of simulated seconds. *)
let e20_chaos_tail_latency size =
  section "E20" "retry tail latency under injected faults (virtual time)";
  let domain_bits = 8 and bucket_size = 256 and shard_bits = 2 in
  let ops = if size = Fast then 200 else 1000 in
  let rtt_s = 0.030 and timeout_s = 0.250 in
  let st = random_store ~domain_bits ~bucket_size "e20-st" in
  let policy =
    {
      Lightweb.Zltp_client.attempts = 4;
      base_backoff_s = 0.05;
      max_backoff_s = 1.0;
      deadline_s = 30.0;
    }
  in
  let charge_latency clock (ep : Lw_net.Endpoint.t) =
    {
      ep with
      Lw_net.Endpoint.recv =
        (fun () ->
          match ep.Lw_net.Endpoint.recv () with
          | msg ->
              Lw_obs.Clock.sleep clock rtt_s;
              msg
          | exception Lw_net.Endpoint.Timeout ->
              Lw_obs.Clock.sleep clock timeout_s;
              raise Lw_net.Endpoint.Timeout);
    }
  in
  (* [dead_first] prepends a permanently unreachable replica to role 0,
     so every dial walks past it — the kill-one-replica failover run *)
  let run_world ~label ~rate ~dead_first =
    let clock = Lw_obs.Clock.virtual_ () in
    let dials = Array.make_matrix 2 2 0 in
    let mk_replica role i =
      Lightweb.Zltp_client.replica
        ~name:(Printf.sprintf "r%d-%d" role i)
        (fun () ->
          let d = dials.(role).(i) in
          dials.(role).(i) <- d + 1;
          let fe = Lightweb.Zltp_frontend.of_store st ~shard_bits in
          let srv =
            Lightweb.Zltp_server.create ~blob_size:bucket_size
              (Lightweb.Zltp_backend.sharded fe)
          in
          let sched =
            if rate = 0.0 then Lw_net.Faulty.none
            else
              Lw_net.Faulty.bernoulli
                ~seed:(Printf.sprintf "e20-%s/r%d-%d/d%d" label role i d)
                ~rate
          in
          let faulty, _ = Lw_net.Faulty.wrap ~clock sched (Lightweb.Zltp_server.endpoint srv) in
          Ok (charge_latency clock faulty))
    in
    let dead =
      Lightweb.Zltp_client.replica ~name:"r0-dead" (fun () -> Error "connection refused")
    in
    let role0 = List.init 2 (mk_replica 0) in
    let roles = [ (if dead_first then dead :: role0 else role0); List.init 2 (mk_replica 1) ] in
    match
      Lightweb.Zltp_client.connect_replicated ~policy ~clock
        ~rng:(Lw_crypto.Drbg.create ~seed:("e20-" ^ label))
        roles
    with
    | Error e -> failwith (Printf.sprintf "E20 %s: connect failed: %s" label e)
    | Ok client ->
        let lat = Array.make ops 0.0 in
        let errors = ref 0 in
        for i = 0 to ops - 1 do
          let idx = (i * 37 + 11) mod (1 lsl domain_bits) in
          let t0 = Lw_obs.Clock.now clock in
          (match Lightweb.Zltp_client.get_raw_index client idx with
          | Ok b -> assert (String.equal b (Lw_store.Snapshot.get (Lw_store.current st) idx))
          | Error _ -> incr errors);
          lat.(i) <- (Lw_obs.Clock.now clock -. t0) *. 1000.
        done;
        let retries = Lightweb.Zltp_client.retries client in
        let failovers = Lightweb.Zltp_client.failovers client in
        Lightweb.Zltp_client.close client;
        Array.iter (fun x -> assert (Float.is_finite x)) lat;
        let p q = Lw_util.Stats.percentile lat q in
        row "%-12s %6.1f%% faults %8.1f ms p50 %8.1f ms p99 %5d retries %3d failovers %3d errors\n"
          label (100. *. rate) (p 50.) (p 99.) retries failovers !errors;
        ( label,
          rate,
          [
            ("rate", Json.Number rate);
            ("ops", Json.Number (float_of_int ops));
            ("p50_ms", Json.Number (p 50.));
            ("p99_ms", Json.Number (p 99.));
            ("mean_ms", Json.Number (Lw_util.Stats.mean lat));
            ("retries", Json.Number (float_of_int retries));
            ("failovers", Json.Number (float_of_int failovers));
            ("errors", Json.Number (float_of_int !errors));
          ] )
  in
  Printf.printf "(%d ops/run, rtt %.0f ms, recv timeout %.0f ms, virtual time)\n\n" ops
    (1000. *. rtt_s) (1000. *. timeout_s);
  let r0 = run_world ~label:"fault-0pct" ~rate:0.0 ~dead_first:false in
  let r1 = run_world ~label:"fault-1pct" ~rate:0.01 ~dead_first:false in
  let r5 = run_world ~label:"fault-5pct" ~rate:0.05 ~dead_first:false in
  let rates = [ r0; r1; r5 ] in
  let kill = run_world ~label:"kill-replica" ~rate:0.01 ~dead_first:true in
  Printf.printf
    "\nfault-free p99 is one RTT; each injected fault adds a timeout plus backoff, so\n\
     the p99/p50 gap is the paper's tail-latency cost of self-healing. kill-replica\n\
     shows failover past a dead replica completing every operation.\n";
  let open Json in
  let entry (label, _, fields) = (label, Obj fields) in
  write_bench size ~id:"E20" "BENCH_chaos.json"
    ([
       ("ops_per_run", Number (float_of_int ops));
       ("rtt_ms", Number (1000. *. rtt_s));
       ("recv_timeout_ms", Number (1000. *. timeout_s));
       ("attempts", Number (float_of_int policy.Lightweb.Zltp_client.attempts));
     ]
    @ List.map entry rates
    @ [ entry kill ])

(* ------------------------------------------------------------------ *)
(* E21: observability overhead on the fused scan (lw_obs)              *)
(* ------------------------------------------------------------------ *)

(* The contenders are the same production kernels with metric recording
   globally disabled vs enabled, interleaved per repetition exactly like
   E19. With recording disabled every metric op collapses to one atomic
   read, so the "off" side reproduces the PR 2 fused numbers
   (BENCH_scan.json) and the on/off delta is precisely what the
   instrumentation — two counter bumps per answer plus the per-shard
   histogram path — costs. The budget is <2%. *)
let e21_obs_overhead size =
  section "E21" "observability overhead on the fused scan (lw_obs)";
  let d, bucket_size, reps = if size = Fast then (10, 1024, 3) else (12, 8192, 5) in
  let st = random_store ~domain_bits:d ~bucket_size "e21" in
  let server = whole_server st in
  let drbg = rng () in
  let keys =
    Array.init 8 (fun i ->
        let alpha = (i * 53) land ((1 lsl d) - 1) in
        let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha drbg in
        if i land 1 = 0 then k0 else k1)
  in
  let db_mb = float_of_int (Lw_store.total_bytes st) /. 1048576. in
  let off f () =
    Lw_obs.Metrics.set_enabled false;
    f ();
    Lw_obs.Metrics.set_enabled true
  in
  (* the delta under test is ~ns of atomic ops against ms of scan, far
     below single-shot jitter on shared hardware — so each timed sample
     amortises enough answers to span tens of milliseconds, calibrated
     per kernel, and we take more reps than E19 uses *)
  let reps = 2 * reps - 1 in
  let sample_target_s = if size = Fast then 0.05 else 0.08 in
  let repeat n f () =
    for _ = 1 to n do
      f ()
    done
  in
  let single () = ignore (Lw_pir.Server.answer server keys.(0)) in
  let batch () = ignore (Lw_pir.Server.answer_batch server keys) in
  (* warmup: bring the database and code paths into cache before timing *)
  single ();
  batch ();
  row "geometry: 2^%d buckets x %d B = %.0f MiB, %d paired reps, ~%.0f ms samples\n\n" d
    bucket_size db_mb reps (1000. *. sample_target_s);
  let overhead s_off s_on = 100. *. (s_on -. s_off) /. s_off in
  let report label w s_off s_on =
    let mb = db_mb *. float_of_int w in
    row "%-22s %9.2f ms off %9.2f ms on %9.0f / %-6.0f MB/s %+6.2f%%\n" label
      (1000. *. s_off) (1000. *. s_on) (mb /. s_off) (mb /. s_on)
      (overhead s_off s_on)
  in
  (* drift-robust estimator: each rep times off/on/on/off back to back
     and yields one paired ratio, so slow throughput drift (turbo,
     noisy neighbours) cancels within the rep; the overhead is the
     median ratio and the on-side time is derived from it, keeping the
     reported numbers mutually consistent *)
  let median a =
    let s = Array.copy a in
    Array.sort Float.compare s;
    let n = Array.length s in
    if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
  in
  let pair one =
    let t1 = Float.max 1e-6 (snd (time_once one)) in
    let inner = max 3 (int_of_float (Float.ceil (sample_target_s /. t1))) in
    let f = repeat inner one in
    let per x = x /. float_of_int inner in
    let offs = Array.make reps 0. and ratios = Array.make reps 0. in
    for r = 0 to reps - 1 do
      (* alternate ABBA / BAAB so the rep-boundary slot (GC, cache
         refill from between-rep work) is charged to each side equally *)
      let t () = snd (time_once f) and t_off () = snd (time_once (off f)) in
      let o, n =
        if r land 1 = 0 then begin
          let o1 = t_off () in
          let n1 = t () in
          let n2 = t () in
          let o2 = t_off () in
          (o1 +. o2, n1 +. n2)
        end
        else begin
          let n1 = t () in
          let o1 = t_off () in
          let o2 = t_off () in
          let n2 = t () in
          (o1 +. o2, n1 +. n2)
        end
      in
      offs.(r) <- o /. 2.;
      ratios.(r) <- n /. o
    done;
    let s_off = per (median offs) in
    (s_off, s_off *. median ratios)
  in
  let single_off, single_on = pair single in
  report "fused single query" 1 single_off single_on;
  let batch_off, batch_on = pair batch in
  report "batch scan (w=8)" 8 batch_off batch_on;
  Lw_obs.Metrics.set_enabled true;
  let answers =
    Lw_obs.Metrics.counter_value (Lw_obs.Metrics.counter "pir.server.answers")
  in
  let scan_bytes =
    Lw_obs.Metrics.counter_value (Lw_obs.Metrics.counter "pir.server.scan_bytes")
  in
  row "\nlive registry after this experiment: pir.server.answers=%d scan_bytes=%d\n"
    answers scan_bytes;
  let within = overhead single_off single_on <= 2.0 in
  row "single-query overhead %+0.2f%% — %s the <2%% budget\n"
    (overhead single_off single_on)
    (if within then "within" else "OVER");
  let open Json in
  let entry w s_off s_on =
    let mb = db_mb *. float_of_int w in
    Obj
      [
        ("metrics_off_ms", Number (1000. *. s_off));
        ("metrics_on_ms", Number (1000. *. s_on));
        ("metrics_off_mb_s", Number (mb /. s_off));
        ("metrics_on_mb_s", Number (mb /. s_on));
        ("overhead_pct", Number (overhead s_off s_on));
        ("within_2pct", Bool (overhead s_off s_on <= 2.0));
      ]
  in
  write_bench size ~id:"E21" "BENCH_obs.json"
    [
      ("domain_bits", Number (float_of_int d));
      ("bucket_size", Number (float_of_int bucket_size));
      ("db_mib", Number db_mb);
      ("reps", Number (float_of_int reps));
      ("single", entry 1 single_off single_on);
      ("batch8", entry 8 batch_off batch_on);
      ("counters_after",
       Obj
         [
           ("pir_server_answers", Number (float_of_int answers));
           ("pir_server_scan_bytes", Number (float_of_int scan_bytes));
         ]);
    ]

(* ------------------------------------------------------------------ *)
(* E22: publisher updates while serving (epoch-versioned store)        *)
(* ------------------------------------------------------------------ *)

(* The epoch engine's two promises, measured. (1) Sealing a low-churn
   epoch copies only its dirty copy-on-write blocks: at 1% churn the
   publish must cost <5% of a full database copy, which is what makes
   continuous publishing affordable (the cost model's update-bandwidth
   term predicts the same ratio analytically — both are printed). (2)
   Query latency holds while a publisher seals epochs underneath the
   readers, because every answer pins an immutable snapshot instead of
   locking the store: p99 with a concurrent sealer must stay within
   1.5x the quiet baseline. *)
let e22_store_updates size =
  section "E22" "publisher updates while serving (epoch-versioned store)";
  let domain_bits, bucket_size = if size = Fast then (10, 1024) else (12, 4096) in
  let buckets = 1 lsl domain_bits in
  (* Block size is the CoW-granularity knob: with uniform churn c a
     block of b buckets is dirtied with probability 1-(1-c)^b, so the
     publish cost only stays proportional to churn while c·b << 1.
     Serve-side cost is unaffected — the scan kernels split bucket runs
     at block boundaries whatever the block size — so E22 runs the
     engine at 4 buckets/block, the regime a churn-sensitive deployment
     would pick, rather than the 256 KiB streaming default. *)
  let st = Lw_store.create ~block_bytes:(4 * bucket_size) ~domain_bits ~bucket_size () in
  let fill = Lw_store.writer st in
  let r0 = det "e22-fill" in
  for i = 0 to buckets - 1 do
    Lw_store.Writer.set fill i (Lw_util.Det_rng.bytes r0 bucket_size)
  done;
  ignore (Lw_store.Writer.seal fill);
  let total = Lw_store.total_bytes st in
  let db_mb = float_of_int total /. 1048576. in
  row "geometry: 2^%d buckets x %d B = %.1f MiB, %d B CoW blocks (%d buckets/block)\n\n"
    domain_bits bucket_size db_mb (Lw_store.block_bytes st) (Lw_store.block_buckets st);
  (* --- CoW publish cost vs churn --- *)
  let ds =
    {
      Lw_sim.Cost_model.name = "bench";
      total_bytes = float_of_int total;
      pages = float_of_int buckets;
      avg_page_bytes = float_of_int bucket_size;
    }
  in
  row "%-8s %-10s %-12s %-12s %-12s %-12s %-10s\n" "churn" "mutations" "dirty blocks"
    "cow bytes" "measured" "predicted" "seal ms";
  let gen = ref 0 in
  let churn_rows =
    List.map
      (fun churn ->
        incr gen;
        let n_mut = max 1 (int_of_float (Float.round (churn *. float_of_int buckets))) in
        let r = det (Printf.sprintf "e22-churn-%d" !gen) in
        let w = Lw_store.writer st in
        let (dirty, cow), seal_s =
          time_once (fun () ->
              for _ = 1 to n_mut do
                let i = Lw_util.Det_rng.int r buckets in
                Lw_store.Writer.set w i (Lw_util.Det_rng.bytes r bucket_size)
              done;
              let dirty = Lw_store.Writer.dirty_blocks w in
              let cow = Lw_store.Writer.cow_bytes w in
              ignore (Lw_store.Writer.seal w);
              (dirty, cow))
        in
        let ratio = float_of_int cow /. float_of_int total in
        let model =
          Lw_sim.Cost_model.update_estimate ~bucket_bytes:bucket_size
            ~block_bytes:(Lw_store.block_bytes st) ~churn ds
        in
        row "%-8.3f %-10d %-12d %-12d %11.2f%% %11.2f%% %8.2f\n" churn n_mut dirty cow
          (100. *. ratio)
          (100. *. model.Lw_sim.Cost_model.cow_ratio)
          (1000. *. seal_s);
        (churn, n_mut, dirty, cow, ratio, model.Lw_sim.Cost_model.cow_ratio, seal_s))
      [ 0.001; 0.01; 0.1 ]
  in
  let ratio_at_1pct =
    List.find_map (fun (c, _, _, _, r, _, _) -> if c = 0.01 then Some r else None) churn_rows
    |> Option.value ~default:1.
  in
  let cow_ok = ratio_at_1pct < 0.05 in
  row "\n1%% churn seals %.2f%% of the database — %s the <5%% budget\n"
    (100. *. ratio_at_1pct)
    (if cow_ok then "within" else "OVER");
  (* --- serving latency under concurrent sealing --- *)
  let answers = if size = Fast then 400 else 600 in
  let drbg = rng () in
  let keys =
    Array.init 16 (fun i ->
        let alpha = (i * 37) land (buckets - 1) in
        fst (Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg))
  in
  let measure ~updating =
    let stop = Atomic.make false in
    let sealed = Atomic.make 0 in
    let sealer =
      if not updating then None
      else
        Some
          (Domain.spawn (fun () ->
               let r = det "e22-sealer" in
               let n_mut = max 1 (buckets / 100) in
               (* pre-generate payloads: the cost under test is the
                  engine's CoW + seal, not the RNG's allocation rate *)
               let payloads =
                 Array.init 8 (fun _ -> Lw_util.Det_rng.bytes r bucket_size)
               in
               let g = ref 0 in
               while not (Atomic.get stop) do
                 let w = Lw_store.writer st in
                 for _ = 1 to n_mut do
                   incr g;
                   let i = Lw_util.Det_rng.int r buckets in
                   Lw_store.Writer.set w i payloads.(!g land 7)
                 done;
                 ignore (Lw_store.Writer.seal w);
                 Atomic.incr sealed;
                 (* a paced publisher, not a tight seal loop: epochs land
                    every couple of ms, several per measured answer run *)
                 Unix.sleepf 0.002
               done))
    in
    let lat = Array.make answers 0. in
    for i = 0 to answers - 1 do
      let t0 = Unix.gettimeofday () in
      let snap = Lw_store.pin_latest st in
      Fun.protect
        ~finally:(fun () -> Lw_store.unpin st snap)
        (fun () ->
          let srv = Lw_pir.Server.of_snapshot snap in
          ignore (Lw_pir.Server.answer srv keys.(i land 15)));
      lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.
    done;
    Atomic.set stop true;
    Option.iter Domain.join sealer;
    let p q = Lw_util.Stats.percentile lat q in
    (p 50., p 99., Atomic.get sealed)
  in
  (* warmup both code paths before timing *)
  ignore (measure ~updating:false);
  Gc.major ();
  let base_p50, base_p99, _ = measure ~updating:false in
  Gc.major ();
  let upd_p50, upd_p99, sealed = measure ~updating:true in
  let p99_ratio = if base_p99 > 0. then upd_p99 /. base_p99 else 1. in
  let lat_ok = p99_ratio <= 1.5 in
  row "\n%-26s %10s %10s\n" "" "p50 ms" "p99 ms";
  row "%-26s %10.2f %10.2f\n" "quiet baseline" base_p50 base_p99;
  row "%-26s %10.2f %10.2f   (%d epochs sealed concurrently)\n" "1%-churn sealer running"
    upd_p50 upd_p99 sealed;
  row "p99 under updates is %.2fx baseline — %s the 1.5x budget\n" p99_ratio
    (if lat_ok then "within" else "OVER");
  row "epochs now live: [%s] (keep window + pins)\n"
    (String.concat "; " (List.map string_of_int (Lw_store.live_epochs st)));
  let open Json in
  write_bench size ~id:"E22" "BENCH_store.json"
    [
      ("domain_bits", Number (float_of_int domain_bits));
      ("bucket_size", Number (float_of_int bucket_size));
      ("db_mib", Number db_mb);
      ("block_bytes", Number (float_of_int (Lw_store.block_bytes st)));
      ( "churn",
        List
          (List.map
             (fun (churn, n_mut, dirty, cow, ratio, model_ratio, seal_s) ->
               Obj
                 [
                   ("churn", Number churn);
                   ("mutations", Number (float_of_int n_mut));
                   ("dirty_blocks", Number (float_of_int dirty));
                   ("cow_bytes", Number (float_of_int cow));
                   ("cow_ratio", Number ratio);
                   ("model_ratio", Number model_ratio);
                   ("seal_ms", Number (1000. *. seal_s));
                 ])
             churn_rows) );
      ("cow_ratio_at_1pct", Number ratio_at_1pct);
      ("cow_within_5pct", Bool cow_ok);
      ( "serving",
        Obj
          [
            ("answers", Number (float_of_int answers));
            ("baseline_p50_ms", Number base_p50);
            ("baseline_p99_ms", Number base_p99);
            ("updating_p50_ms", Number upd_p50);
            ("updating_p99_ms", Number upd_p99);
            ("epochs_sealed", Number (float_of_int sealed));
            ("p99_ratio", Number p99_ratio);
            ("within_1_5x", Bool lat_ok);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* E23: the full static pass — loading each file's typed tree (.cmt) *)
(* and running the rules plus the taint, race and balance analyses    *)
(* over it — over lib/ bin/ bench/, checked against the committed     *)
(* baseline and a 10 s wall-clock budget. This is the cost every CI   *)
(* run and every `dune build @lint` pays on top of the build.         *)
(* ------------------------------------------------------------------ *)

let e23_full_lint size =
  section "E23" "full typed-tree lint (load + taint + race + balance) over lib/ bin/ bench/";
  let roots =
    List.filter_map Lw_analysis.Analyzer.resolve_dir [ "lib"; "bin"; "bench" ]
  in
  if roots = [] then Printf.printf "sources not reachable from cwd; skipping.\n"
  else begin
    let reps = if size = Fast then 1 else 3 in
    let best = ref None in
    for _ = 1 to reps do
      let r = Lw_analysis.Analyzer.scan_paths roots in
      match !best with
      | Some (b : Lw_analysis.Report.t) when b.elapsed_s <= r.elapsed_s -> ()
      | _ -> best := Some r
    done;
    let r = Option.get !best in
    let baseline =
      match Lw_analysis.Analyzer.resolve_file "lint_baseline.txt" with
      | Some f -> Lw_analysis.Baseline.load f
      | None -> []
    in
    let fresh, accepted = Lw_analysis.Baseline.apply baseline r.findings in
    let budget_ms = 10_000. in
    let elapsed_ms = 1000. *. r.elapsed_s in
    let within = elapsed_ms < budget_ms in
    row "%-20s %8d (over %d root dirs)\n" "files scanned"
      r.Lw_analysis.Report.files_scanned (List.length roots);
    row "%-20s %8d\n" "findings" (List.length r.findings);
    let untyped = List.filter (fun f -> f.Lw_analysis.Report.rule = "typed-tree") r.findings in
    if untyped <> [] then
      row "%-20s %8d (not recorded; build them first: dune build @check)\n" "no typed tree"
        (List.length untyped);
    row "%-20s %8d\n" "fresh vs baseline" (List.length fresh);
    row "%-20s %8d\n" "baselined" accepted;
    row "%-20s %8d\n" "suppressed" r.suppressed;
    row "%-20s %8.1f ms (best of %d) — %s the %.0f s budget\n" "wall-clock"
      elapsed_ms reps
      (if within then "within" else "OVER")
      (budget_ms /. 1000.);
    let open Json in
    if untyped = [] then
      write_bench size ~id:"E23" "BENCH_lint.json"
        [
          ("files", Number (float_of_int r.files_scanned));
          ("findings", Number (float_of_int (List.length r.findings)));
          ("fresh", Number (float_of_int (List.length fresh)));
          ("baselined", Number (float_of_int accepted));
          ("suppressed", Number (float_of_int r.suppressed));
          ("elapsed_ms", Number elapsed_ms);
          ("budget_ms", Number budget_ms);
          ("within_budget", Bool within);
        ]
  end

(* ------------------------------------------------------------------ *)
(* E24: fleet-scale serving — multi-core scans + closed-loop fleet sim *)
(* ------------------------------------------------------------------ *)

(* Two claims, measured. (1) Scan scaling: partitioning one shard's fused
   scan across OCaml domains leaves the answer bit-identical while the
   critical path — the slowest partition, each answered on its own
   sub-view with its sub-key — shrinks near-linearly.
   The wall clock only follows where the machine actually has cores, so
   both are reported and the JSON carries the core count; compare
   wall-clock numbers across checkouts only with matching "machine"
   stanzas. (2) Fleet behaviour: [Fleet_sim] stands up a real sharded
   frontend, replays a Zipf page mix as a Poisson stream, and reports
   measured p50/p99 sojourn vs offered load next to the three models the
   repo already has (Queue_sim's fitted service law, Latency_model's
   straggler tail, Cost_model's Table-2 arithmetic). *)
let e24_fleet size =
  section "E24" "fleet-scale serving: domain-parallel scan + closed-loop shard fleet";
  let cores = Domain.recommended_domain_count () in
  (* ---- part 1: domain-partitioned scan scaling on one shard -------- *)
  let d, bucket_size, reps =
    if size = Smoke then (9, 64, 1) else if size = Fast then (11, 512, 3) else (12, 1024, 5)
  in
  let st = random_store ~domain_bits:d ~bucket_size "e24-st" in
  let server = whole_server st in
  let key, _ = Lw_dpf.Dpf.gen ~domain_bits:d ~alpha:(1 lsl (d - 1)) (rng ()) in
  let db_mb = float_of_int (Lw_store.total_bytes st) /. 1048576. in
  let expect = Lw_pir.Server.answer server key in
  let serial_s = time_median ~reps (fun () -> ignore (Lw_pir.Server.answer server key)) in
  row "scan shard: 2^%d buckets x %d B = %.2f MiB; %d core(s) on this machine\n" d
    bucket_size db_mb cores;
  row "serial fused answer: %.2f ms (%.0f MB/s)\n\n" (1000. *. serial_s) (db_mb /. serial_s);
  row "%-8s %12s %14s %16s %18s\n" "domains" "wall" "wall speedup" "crit-path"
    "crit-path speedup";
  let scaling_rows =
    List.map
      (fun nd ->
        let run_wall () =
          if nd = 1 then Lw_pir.Server.answer server key
          else (Lw_pir.Server.answer_partitioned ~partitions:nd ~domains:nd server [| key |]).(0)
        in
        if not (String.equal (run_wall ()) expect) then
          failwith "E24: the partitioned answer disagrees with the serial answer";
        let wall_s = time_median ~reps (fun () -> ignore (run_wall ())) in
        (* critical path = slowest partition of an [nd]-way split, each
           answered on its own sub-view with its sub-key: the wall clock a
           machine with [nd] free cores would show, minus spawn/join
           overhead *)
        let cp_s =
          if nd = 1 then serial_s
          else begin
            let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
            let levels = log2 nd in
            let rem = d - levels in
            let snap = Lw_store.current st in
            let parts =
              Array.mapi
                (fun p sub ->
                  ( Lw_pir.Server.of_snapshot
                      (Lw_store.Snapshot.sub snap ~base:(p lsl rem) ~domain_bits:rem),
                    sub ))
                (Lw_dpf.Distributed.split key ~shard_bits:levels)
            in
            let best = ref infinity in
            for _ = 1 to reps do
              let acc = Bytes.make bucket_size '\x00' in
              let slowest =
                Array.fold_left
                  (fun m (view, sub) ->
                    let share, s = time_once (fun () -> Lw_pir.Server.answer view sub) in
                    Lw_util.Xorbuf.xor_string_into ~src:share ~src_pos:0 ~dst:acc ~dst_pos:0
                      ~len:bucket_size;
                    Float.max m s)
                  0. parts
              in
              (* bench harness validates/times key-derived answers; the
                 driver holds both DPF shares by design *)
              (* lw-lint: allow taint lines=4 *)
              if not (String.equal (Bytes.to_string acc) expect) then
                failwith "E24: the partitions' answers disagree with the serial answer";
              if slowest < !best then best := slowest
            done;
            !best
          end
        in
        row "%-8d %9.2f ms %13.2fx %13.2f ms %17.2fx\n" nd (1000. *. wall_s)
          (serial_s /. wall_s) (1000. *. cp_s) (serial_s /. cp_s);
        (nd, wall_s, cp_s))
      [ 1; 2; 4; 8 ]
  in
  let cp8_speedup =
    (* lw-lint: allow taint lines=1 *)
    match List.rev scaling_rows with (_, _, cp8) :: _ -> serial_s /. cp8 | [] -> 0.
  in
  row "\ncritical-path speedup at 8 domains: %.2fx (target >= 3x)\n" cp8_speedup;
  (* ---- part 2: closed-loop fleet simulation ------------------------ *)
  let open Lw_repro in
  let fleets =
    if size = Smoke then [ ("16-shard smoke", Fleet_sim.smoke) ]
    else if size = Fast then [ ("64-shard", Fleet_sim.default) ]
    else
      [
        ("64-shard", Fleet_sim.default);
        ("256-shard", { Fleet_sim.default with shard_bits = 8; seed = "fleet-256" });
      ]
  in
  let results =
    List.map
      (fun (label, (p : Fleet_sim.params)) ->
        row "\nfleet %s: closed loop, batch %d, load points [%s]\n" label
          p.Fleet_sim.batch_size
          (String.concat "; "
             (List.map (Printf.sprintf "%.2f") p.Fleet_sim.load_fractions));
        let r = Fleet_sim.run ~progress:(fun s -> row "  %s\n" s) p in
        row "  %d shards, %.2f MiB total database\n" r.Fleet_sim.shards
          (float_of_int r.Fleet_sim.db_bytes /. 1048576.);
        row "  batch service: mean %.2f ms, p99 %.2f ms -> capacity %.1f req/s\n"
          (1000. *. r.Fleet_sim.service_batch_mean_s)
          (1000. *. r.Fleet_sim.service_batch_p99_s)
          r.Fleet_sim.capacity_rps;
        row "  single key: %.2f ms\n" (1000. *. r.Fleet_sim.direct_single_s);
        row "  %-6s %10s %10s %10s %6s %7s %12s %12s\n" "load" "offered/s" "p50"
          "p99" "util" "L=λW" "qmodel p50" "qmodel p95";
        List.iter
          (fun (pt : Fleet_sim.point) ->
            row "  %-6.2f %10.1f %7.2f ms %7.2f ms %5.0f%% %7.2f %9.2f ms %9.2f ms\n"
              pt.Fleet_sim.fraction pt.Fleet_sim.offered_rps
              (1000. *. pt.Fleet_sim.p50_s)
              (1000. *. pt.Fleet_sim.p99_s)
              (100. *. pt.Fleet_sim.utilization)
              pt.Fleet_sim.littles_lambda_w
              (1000. *. pt.Fleet_sim.queue_model_p50_s)
              (1000. *. pt.Fleet_sim.queue_model_p95_s))
          r.Fleet_sim.points;
        let m = r.Fleet_sim.model in
        row
          "  Table-2 check: model %d shards, %.2f ms/request, floor %.2f ms/batch,\n\
          \    $%.6f/request; measured batch %.2f ms -> floor ratio %.2f\n"
          m.Fleet_sim.model_shards
          (1000. *. m.Fleet_sim.model_request_s)
          (1000. *. m.Fleet_sim.model_latency_floor_s)
          m.Fleet_sim.model_request_cost_usd
          (1000. *. m.Fleet_sim.measured_batch_service_s)
          m.Fleet_sim.floor_ratio;
        let tm = r.Fleet_sim.tail_model in
        row "  straggler tail model (sigma %.2f): p50 %.2f ms, p99 %.2f ms\n"
          p.Fleet_sim.straggler_sigma
          (1000. *. tm.Latency_model.p50_s)
          (1000. *. tm.Latency_model.p99_s);
        row
          "  SPIR probe: hint %.2f ms/epoch, answer %.2f ms -> mul-acc/XOR ratio %.1fx;\n\
          \    three-way at this geometry (Single seeded from the measured ratio):\n"
          (1000. *. r.Fleet_sim.spir_hint_s)
          (1000. *. r.Fleet_sim.spir_answer_s)
          r.Fleet_sim.spir_scan_ratio;
        List.iter
          (fun mc -> Format.printf "    %a\n" Lw_sim.Cost_model.pp_mode_cost mc)
          r.Fleet_sim.three_way;
        Format.print_flush ();
        (label, p, r))
      fleets
  in
  Printf.printf
    "\na floor ratio < 1 means the batch scan kernel amortises the scan across\n\
     the batch, beating the Table-2 batch x request floor; the Little's-law column\n\
     (L = λW vs time-average N) is a bookkeeping cross-check on the event loop.\n";
  let open Json in
  let scaling_json =
    List
      (List.map
         (fun (nd, wall_s, cp_s) ->
           Obj
             [
               ("domains", Number (float_of_int nd));
               ("wall_ms", Number (1000. *. wall_s));
               ("wall_speedup", Number (serial_s /. wall_s));
               ("critical_path_ms", Number (1000. *. cp_s));
               ("critical_path_speedup", Number (serial_s /. cp_s));
             ])
         scaling_rows)
  in
  let point_json (pt : Fleet_sim.point) =
    Obj
      [
        ("load_fraction", Number pt.Fleet_sim.fraction);
        ("offered_rps", Number pt.Fleet_sim.offered_rps);
        ("offered", Number (float_of_int pt.Fleet_sim.offered));
        ("served", Number (float_of_int pt.Fleet_sim.served));
        ("mean_sojourn_ms", Number (1000. *. pt.Fleet_sim.mean_sojourn_s));
        ("p50_ms", Number (1000. *. pt.Fleet_sim.p50_s));
        ("p99_ms", Number (1000. *. pt.Fleet_sim.p99_s));
        ("mean_batch_fill", Number pt.Fleet_sim.mean_batch_fill);
        ("utilization", Number pt.Fleet_sim.utilization);
        ("mean_in_system", Number pt.Fleet_sim.mean_in_system);
        ("littles_lambda_w", Number pt.Fleet_sim.littles_lambda_w);
        ("queue_model_p50_ms", Number (1000. *. pt.Fleet_sim.queue_model_p50_s));
        ("queue_model_p95_ms", Number (1000. *. pt.Fleet_sim.queue_model_p95_s));
      ]
  in
  let fleet_json (label, (p : Fleet_sim.params), (r : Fleet_sim.result)) =
    let m = r.Fleet_sim.model in
    let h = r.Fleet_sim.fleet_hist in
    let tm = r.Fleet_sim.tail_model in
    Obj
      [
        ("label", String label);
        ("shards", Number (float_of_int r.Fleet_sim.shards));
        ("scan_domains", Number (float_of_int p.Fleet_sim.scan_domains));
        ("batch_size", Number (float_of_int p.Fleet_sim.batch_size));
        ("db_bytes", Number (float_of_int r.Fleet_sim.db_bytes));
        ("service_batch_mean_ms", Number (1000. *. r.Fleet_sim.service_batch_mean_s));
        ("service_batch_p99_ms", Number (1000. *. r.Fleet_sim.service_batch_p99_s));
        ("fitted_scan_ms", Number (1000. *. r.Fleet_sim.fitted_scan_s));
        ("fitted_per_request_ms", Number (1000. *. r.Fleet_sim.fitted_per_request_s));
        ("capacity_rps", Number r.Fleet_sim.capacity_rps);
        ("direct_single_ms", Number (1000. *. r.Fleet_sim.direct_single_s));
        ("points", List (List.map point_json r.Fleet_sim.points));
        ( "shard_hist",
          Obj
            [
              ("count", Number (float_of_int h.Lw_obs.Metrics.count));
              ("p50_ms", Number (1000. *. h.Lw_obs.Metrics.p50));
              ("p95_ms", Number (1000. *. h.Lw_obs.Metrics.p95));
              ("p99_ms", Number (1000. *. h.Lw_obs.Metrics.p99));
              ("max_ms", Number (1000. *. h.Lw_obs.Metrics.max));
            ] );
        ( "tail_model",
          Obj
            [
              ("p50_ms", Number (1000. *. tm.Latency_model.p50_s));
              ("p99_ms", Number (1000. *. tm.Latency_model.p99_s));
            ] );
        ( "cost_model",
          Obj
            [
              ("model_shards", Number (float_of_int m.Fleet_sim.model_shards));
              ("model_request_ms", Number (1000. *. m.Fleet_sim.model_request_s));
              ( "model_latency_floor_ms",
                Number (1000. *. m.Fleet_sim.model_latency_floor_s) );
              ("model_vcpu_s", Number m.Fleet_sim.model_vcpu_s);
              ("model_request_cost_usd", Number m.Fleet_sim.model_request_cost_usd);
              ( "measured_batch_service_ms",
                Number (1000. *. m.Fleet_sim.measured_batch_service_s) );
              ("measured_capacity_rps", Number m.Fleet_sim.measured_capacity_rps);
              ("floor_ratio", Number m.Fleet_sim.floor_ratio);
            ] );
        ( "spir_probe",
          Obj
            [
              ("hint_ms", Number (1000. *. r.Fleet_sim.spir_hint_s));
              ("answer_ms", Number (1000. *. r.Fleet_sim.spir_answer_s));
              ("scan_ratio", Number r.Fleet_sim.spir_scan_ratio);
            ] );
        ( "three_way",
          List
            (List.map
               (fun mc ->
                 Obj
                   [
                     ("mode", String (Lightweb.Zltp_mode.name mc.Lw_sim.Cost_model.mode));
                     ("servers", Number (float_of_int mc.Lw_sim.Cost_model.mc_servers));
                     ("shards", Number (float_of_int mc.Lw_sim.Cost_model.mc_shards));
                     ("vcpu_seconds", Number mc.Lw_sim.Cost_model.mc_vcpu_seconds);
                     ("request_cost_usd", Number mc.Lw_sim.Cost_model.mc_request_cost_usd);
                     ("upload_kib", Number mc.Lw_sim.Cost_model.mc_upload_kib);
                     ("download_kib", Number mc.Lw_sim.Cost_model.mc_download_kib);
                     ("latency_floor_s", Number mc.Lw_sim.Cost_model.mc_latency_floor_s);
                     ("hint_mib_per_epoch", Number mc.Lw_sim.Cost_model.mc_hint_mib_per_epoch);
                   ])
               r.Fleet_sim.three_way) );
      ]
  in
  (* the critical-path cells time each sub-key's answer, as the waivers
     above say; writing a measurement out branches on it *)
  (* lw-lint: allow taint *)
  write_bench size ~id:"E24" "BENCH_fleet.json"
    [
      ( "scan_scaling",
        Obj
          [
            ("domain_bits", Number (float_of_int d));
            ("bucket_size", Number (float_of_int bucket_size));
            ("db_mib", Number db_mb);
            ("serial_fused_ms", Number (1000. *. serial_s));
            ("rows", scaling_json);
            ("critical_path_speedup_at_8", Number cp8_speedup);
            ("meets_3x_target", Bool (cp8_speedup >= 3.0));
          ] );
      ("fleets", List (List.map fleet_json results));
    ]

(* ------------------------------------------------------------------ *)
(* E25: supervised multi-process fleet                                 *)
(* ------------------------------------------------------------------ *)

(* E24 simulates the fleet; E25 runs it for real: lw_cluster spawns the
   shards as OS processes (this very binary, re-execed), a PIR client
   reads over loopback TCP, epochs roll out live, and a shard takes a
   real SIGKILL mid-run. Reported: quiet vs during-rollout client
   latency (the cost of live updates), and MTTR for the kill —
   death-detected to caught-up-and-activated, from the supervisor's
   [lw_cluster.mttr_seconds] histogram. Wall-clock, not virtual time:
   process spawn, waitpid and restart backoff are the phenomena. *)
let e25_cluster size =
  section "E25" "multi-process fleet: live rollout latency + kill -9 recovery";
  let module Sup = Lw_cluster.Supervisor in
  let module Metrics = Lw_obs.Metrics in
  let shards, domain_bits, bucket_size, rollouts, reads =
    if size = Smoke then (4, 6, 256, 1, 64)
    else if size = Fast then (4, 8, 512, 3, 200)
    else (8, 9, 1024, 5, 400)
  in
  let n_buckets = 1 lsl domain_bits in
  let state_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lw_cluster_bench_%d" (Unix.getpid ()))
  in
  let cfg =
    {
      (Sup.default_config ~state_dir ()) with
      Sup.shards;
      domain_bits;
      bucket_size;
      ctl_timeout_s = 2.0;
      health_period_s = 0.2;
      health_timeout_s = 0.5;
    }
  in
  Printf.printf "(%d shard processes, 2^%d buckets x %d B, %d rollouts, %d reads/phase)\n\n"
    shards domain_bits bucket_size rollouts reads;
  let sup = Sup.start cfg in
  Fun.protect ~finally:(fun () -> Sup.shutdown sup) @@ fun () ->
  let muts epoch =
    List.init n_buckets (fun i ->
        (i, String.init bucket_size (fun k -> Char.chr (((epoch * 31) + (i * 7) + k) land 0xff))))
  in
  let publish () =
    match Sup.publish sup (muts (Sup.fleet_epoch sup + 1)) with
    | Sup.Rolled_out { epoch; _ } -> epoch
    | Sup.Rolled_back { reason; _ } -> failwith ("E25 rollout failed: " ^ reason)
  in
  let e1 = publish () in
  if not (Sup.await_fleet sup ~epoch:e1) then failwith "E25: fleet never converged on seed";
  let client =
    match Lightweb.Zltp_client.connect_replicated (Sup.replicas sup) with
    | Ok c -> c
    | Error e -> failwith ("E25 client connect: " ^ e)
  in
  Fun.protect ~finally:(fun () -> Lightweb.Zltp_client.close client) @@ fun () ->
  let read_phase label n =
    let lat = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let idx = ((i * 37) + 11) mod n_buckets in
      let t0 = Unix.gettimeofday () in
      (match Lightweb.Zltp_client.get_raw_index client idx with
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "E25 %s read %d: %s" label i e));
      lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.
    done;
    lat
  in
  (* phase 1: quiet fleet *)
  let quiet = read_phase "quiet" reads in
  (* phase 2: the same reads while a publisher thread rolls epochs *)
  let publisher =
    Thread.create
      (fun () ->
        for _ = 1 to rollouts do
          ignore (publish ());
          Thread.delay 0.02
        done)
      ()
  in
  let busy = read_phase "during-rollout" reads in
  Thread.join publisher;
  (* phase 3: SIGKILL a shard, time the fleet back to convergence *)
  let epoch_now = Sup.activated_epoch sup in
  let mttr_h = Metrics.histogram "lw_cluster.mttr_seconds" in
  let mttr_before = Metrics.hist_count mttr_h in
  let t_kill = Unix.gettimeofday () in
  Sup.kill sup 0;
  if not (Sup.await_states ~deadline_s:5. sup 0 [ Sup.Down; Sup.Starting ]) then
    failwith "E25: SIGKILL never noticed";
  if not (Sup.await_fleet ~deadline_s:15. sup ~epoch:epoch_now) then
    failwith "E25: fleet never recovered from SIGKILL";
  let recovery_wall_s = Unix.gettimeofday () -. t_kill in
  if Metrics.hist_count mttr_h <= mttr_before then failwith "E25: no MTTR sample recorded";
  let mttr_s = Metrics.hist_max mttr_h in
  let after = read_phase "post-recovery" (min reads 64) in
  ignore after;
  let view = Sup.scrape sup in
  let p a q = Lw_util.Stats.percentile a q in
  let inflation = p busy 99. /. Float.max (p quiet 99.) 1e-9 in
  row "%-16s %8.2f ms p50 %8.2f ms p99\n" "quiet" (p quiet 50.) (p quiet 99.);
  row "%-16s %8.2f ms p50 %8.2f ms p99   (p99 inflation %.2fx)\n" "during-rollout"
    (p busy 50.) (p busy 99.) inflation;
  row "%-16s %8.0f ms MTTR (supervisor) %8.0f ms wall-to-convergence\n" "kill -9 shard 0"
    (1000. *. mttr_s) (1000. *. recovery_wall_s);
  row "%-16s %d restarts, %d rollouts, %d shard refreshes across %d processes\n" "fleet totals"
    (Lw_cluster.Fleet_view.counter view "lw_cluster.restarts_total")
    (Lw_cluster.Fleet_view.counter view "lw_cluster.rollouts_total")
    (Lw_cluster.Fleet_view.counter view "lw_cluster.shard.refreshes_total")
    (Lw_cluster.Fleet_view.sources view);
  Printf.printf
    "\nlive rollouts cost at most a modest p99 inflation (epoch pinning keeps in-flight\n\
     queries on the old snapshot), and a SIGKILLed shard rejoins from its manifest and\n\
     diff catch-up well inside the 2 s recovery budget.\n";
  if mttr_s >= 2.0 then Printf.printf "WARNING: MTTR %.2f s exceeds the 2 s budget\n" mttr_s;
  let open Json in
  write_bench size ~id:"E25" "BENCH_cluster.json"
    [
      ("shards", Number (float_of_int shards));
      ("domain_bits", Number (float_of_int domain_bits));
      ("bucket_size", Number (float_of_int bucket_size));
      ("rollouts", Number (float_of_int rollouts));
      ("reads_per_phase", Number (float_of_int reads));
      ( "quiet",
        Obj [ ("p50_ms", Number (p quiet 50.)); ("p99_ms", Number (p quiet 99.)) ] );
      ( "during_rollout",
        Obj
          [
            ("p50_ms", Number (p busy 50.));
            ("p99_ms", Number (p busy 99.));
            ("p99_inflation", Number inflation);
          ] );
      ( "kill_recovery",
        Obj
          [
            ("mttr_s", Number mttr_s);
            ("wall_to_convergence_s", Number recovery_wall_s);
            ("meets_2s_budget", Bool (mttr_s < 2.0));
          ] );
      ( "fleet_totals",
        Obj
          [
            ( "restarts",
              Number
                (float_of_int (Lw_cluster.Fleet_view.counter view "lw_cluster.restarts_total"))
            );
            ( "rollouts",
              Number
                (float_of_int (Lw_cluster.Fleet_view.counter view "lw_cluster.rollouts_total"))
            );
            ( "shard_refreshes",
              Number
                (float_of_int
                   (Lw_cluster.Fleet_view.counter view "lw_cluster.shard.refreshes_total")) );
            ("processes_scraped", Number (float_of_int (Lw_cluster.Fleet_view.sources view)));
          ] );
      ("client_failovers", Number (float_of_int (Lightweb.Zltp_client.failovers client)));
    ]

(* ------------------------------------------------------------------ *)

let e26_keyword size =
  section "E26" "keyword GET vs index GET: the wire-v4 two-probe verb, end to end";
  let sites, n_pages, ops, clusters, k =
    if size = Smoke then (4, 48, 24, 8, 3)
    else if size = Fast then (8, 160, 96, 16, 4)
    else (12, 320, 192, 24, 5)
  in
  (* Deployment point: the paper's serving regime is scan-dominated
     (§5.1: 103 ms scan vs 64 ms DPF per GiB shard), which is exactly
     where the width-2 shared-scan kernel pays off — so the keyword
     store is sized with large buckets over a modest domain (16 MiB
     total, like-for-like with the data store) rather than a tiny
     eval-dominated geometry that would under-credit the shared pass. *)
  let geometry =
    {
      Lightweb.Universe.default_geometry with
      Lightweb.Universe.data_blob_size = (if size = Smoke then 8192 else 16384);
      data_domain_bits = (if size = Smoke then 8 else 10);
    }
  in
  (* a small-page synthetic corpus published through the real universe:
     every page lands in both the data store (single-probe path GET) and
     the cuckoo keyword store (two-probe keyword GET) *)
  let profile =
    {
      Lw_sim.Corpus.name = "e26-synthetic";
      total_bytes = float_of_int n_pages *. 160.;
      pages = float_of_int n_pages;
      avg_page_bytes = 160.;
    }
  in
  let corpus = Lw_sim.Corpus.generate ~sites ~sigma:0.4 profile ~n_pages (det "e26-corpus") in
  let u = Lightweb.Universe.create ~name:"e26" geometry in
  Array.iter
    (fun site ->
      match Lightweb.Universe.claim_domain u ~publisher:"bench" ~domain:site with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "E26 claim %s: %s" site e))
    corpus.Lw_sim.Corpus.sites;
  let published = ref [] and skipped = ref 0 in
  Array.iter
    (fun (pg : Lw_sim.Corpus.page) ->
      match
        Lightweb.Universe.push_data u ~publisher:"bench" ~path:pg.Lw_sim.Corpus.path
          ~value:(Json.String pg.Lw_sim.Corpus.body)
      with
      | Ok () -> published := pg.Lw_sim.Corpus.path :: !published
      | Error _ -> incr skipped (* index collision at bench density: skip, count *))
    corpus.Lw_sim.Corpus.pages;
  ignore (Lightweb.Universe.publish_updates u);
  let paths = Array.of_list (List.rev !published) in
  if Array.length paths = 0 then failwith "E26: nothing published";
  let kw_store = Lightweb.Universe.keyword_store u in
  Printf.printf "(%d pages published, %d skipped; cuckoo load %.2f, stash %d; %d ops/path)\n\n"
    (Array.length paths) !skipped
    (Lw_pir.Kw_store.load_factor kw_store)
    (Lw_pir.Kw_store.stash_size kw_store)
    ops;
  let connect label (s0, s1) =
    match
      Lightweb.Zltp_client.connect
        [ Lightweb.Zltp_server.endpoint s0; Lightweb.Zltp_server.endpoint s1 ]
    with
    | Ok c -> c
    | Error e -> failwith (Printf.sprintf "E26 connect %s: %s" label e)
  in
  let data_client = connect "data" (Lightweb.Universe.data_servers u) in
  let kw_client = connect "keyword" (Lightweb.Universe.keyword_servers u) in
  Fun.protect ~finally:(fun () ->
      Lightweb.Zltp_client.close data_client;
      Lightweb.Zltp_client.close kw_client)
  @@ fun () ->
  (* the oracle: for EVERY published path, the keyword GET must return
     byte-identical content to the single-probe path GET *)
  Array.iter
    (fun path ->
      let via label r =
        match r with
        | Ok (Some v) -> v
        | Ok None -> failwith (Printf.sprintf "E26 %s GET lost %s" label path)
        | Error e -> failwith (Printf.sprintf "E26 %s GET %s: %s" label path e)
      in
      let by_path = via "path" (Lightweb.Zltp_client.get data_client path) in
      let by_keyword = via "keyword" (Lightweb.Zltp_client.keyword_get kw_client path) in
      if not (String.equal by_path by_keyword) then
        failwith (Printf.sprintf "E26: keyword GET diverged from path GET at %s" path))
    paths;
  row "%-24s all %d published keys byte-identical to path GET\n" "oracle" (Array.length paths);
  (* latency: the same Zipf-free round-robin mix through both verbs.
     The two verbs are timed INTERLEAVED (index, keyword, keyword,
     index, ...) so machine drift, GC pacing and cache warmth hit both
     distributions equally — a back-to-back A-then-B loop biases the
     ratio whichever way the machine wanders between the two loops. *)
  let index_lat = Array.make ops 0.0 in
  let kw_lat = Array.make ops 0.0 in
  let timed f path =
    let t0 = Unix.gettimeofday () in
    (match f path with
    | Ok (Some _) -> ()
    | Ok None -> failwith (Printf.sprintf "E26: missing record for %s" path)
    | Error e -> failwith (Printf.sprintf "E26: %s" e));
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  (* warm both paths before the measured window *)
  for i = 0 to 7 do
    let path = paths.(i mod Array.length paths) in
    ignore (timed (Lightweb.Zltp_client.get data_client) path);
    ignore (timed (Lightweb.Zltp_client.keyword_get kw_client) path)
  done;
  Gc.major ();
  for i = 0 to ops - 1 do
    let path = paths.(((i * 7) + 3) mod Array.length paths) in
    if i land 1 = 0 then begin
      index_lat.(i) <- timed (Lightweb.Zltp_client.get data_client) path;
      kw_lat.(i) <- timed (Lightweb.Zltp_client.keyword_get kw_client) path
    end
    else begin
      kw_lat.(i) <- timed (Lightweb.Zltp_client.keyword_get kw_client) path;
      index_lat.(i) <- timed (Lightweb.Zltp_client.get data_client) path
    end
  done;
  let p a q = Lw_util.Stats.percentile a q in
  let p50_ratio = p kw_lat 50. /. Float.max (p index_lat 50.) 1e-9 in
  row "%-24s %8.3f ms p50 %8.3f ms p99\n" "index GET (1 probe)" (p index_lat 50.)
    (p index_lat 99.);
  row "%-24s %8.3f ms p50 %8.3f ms p99   (p50 ratio %.2fx, budget 1.5x)\n"
    "keyword GET (2 probes)" (p kw_lat 50.) (p kw_lat 99.) p50_ratio;
  (* the 1.5x budget describes the scan-dominated full geometry; the
     tiny smoke database is fixed-cost-dominated (two DPF evals + double
     wire framing against a near-free scan), so only the full run warns *)
  if size <> Smoke && p50_ratio > 1.5 then
    Printf.printf "WARNING: keyword p50 exceeds the 1.5x single-GET budget\n";
  (* correlated cluster retrieval: Retrieval's feature-hash buckets served
     as one keyword_get_batch per query — the PIR-RAG traffic family *)
  let retr = Lw_repro.Retrieval.build ~clusters corpus in
  let bursts = if size = Smoke then 8 else 24 in
  let burst_lat = Array.make bursts 0.0 in
  let fetched = ref 0 in
  for i = 0 to bursts - 1 do
    let query = paths.((i * 13) mod Array.length paths) in
    let members =
      (* retrieval is over the corpus; keep only keys that survived publish *)
      List.filter
        (fun m -> Array.exists (String.equal m) paths)
        (Lw_repro.Retrieval.retrieve retr ~query ~k)
    in
    let members = if members = [] then [ query ] else members in
    let t0 = Unix.gettimeofday () in
    (match Lightweb.Zltp_client.keyword_get_batch kw_client members with
    | Ok vs ->
        List.iter2
          (fun m v ->
            match v with
            | Some _ -> incr fetched
            | None -> failwith (Printf.sprintf "E26: cluster member %s lost" m))
          members vs
    | Error e -> failwith (Printf.sprintf "E26 cluster batch: %s" e));
    burst_lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.
  done;
  row "%-24s %8.3f ms p50 %8.3f ms p99   (%d bursts, %d members, %d clusters used)\n"
    (Printf.sprintf "cluster retrieve (k=%d)" k)
    (p burst_lat 50.) (p burst_lat 99.) bursts !fetched
    (Lw_repro.Retrieval.non_empty retr);
  (* the cost-model keyword column at the paper's Table-2 point *)
  let kwe =
    Lw_sim.Cost_model.keyword_estimate
      (Lw_sim.Cost_model.of_profile Lw_sim.Corpus.c4)
      Lw_sim.Cost_model.paper_shard Lw_sim.Cost_model.c5_large
  in
  Format.printf "%a\n" Lw_sim.Cost_model.pp_keyword kwe;
  Printf.printf
    "\nthe two cuckoo probes ride ONE batched scan, so keyword GET pays two\n\
     DPF evaluations but a single memory pass — compute overhead %.2fx, not 2x — and\n\
     communication doubles exactly (the two-probe shape is query-independent).\n"
    kwe.Lw_sim.Cost_model.compute_overhead;
  let open Json in
  write_bench size ~id:"E26" "BENCH_keyword.json"
    [
      ("pages_published", Number (float_of_int (Array.length paths)));
      ("pages_skipped", Number (float_of_int !skipped));
      ("cuckoo_load_factor", Number (Lw_pir.Kw_store.load_factor kw_store));
      ("cuckoo_stash", Number (float_of_int (Lw_pir.Kw_store.stash_size kw_store)));
      ("ops", Number (float_of_int ops));
      ( "index_get",
        Obj [ ("p50_ms", Number (p index_lat 50.)); ("p99_ms", Number (p index_lat 99.)) ] );
      ( "keyword_get",
        Obj
          [
            ("p50_ms", Number (p kw_lat 50.));
            ("p99_ms", Number (p kw_lat 99.));
            ("p50_ratio", Number p50_ratio);
            ("meets_1_5x_budget", Bool (p50_ratio <= 1.5));
          ] );
      ( "cluster_retrieval",
        Obj
          [
            ("bursts", Number (float_of_int bursts));
            ("k", Number (float_of_int k));
            ("members_fetched", Number (float_of_int !fetched));
            ("clusters_non_empty", Number (float_of_int (Lw_repro.Retrieval.non_empty retr)));
            ("p50_ms", Number (p burst_lat 50.));
            ("p99_ms", Number (p burst_lat 99.));
          ] );
      ( "cost_model_c4",
        Obj
          [
            ("kw_vcpu_seconds", Number kwe.Lw_sim.Cost_model.kw_vcpu_seconds);
            ("kw_request_cost_usd", Number kwe.Lw_sim.Cost_model.kw_request_cost_usd);
            ("kw_upload_kib", Number kwe.Lw_sim.Cost_model.kw_upload_kib);
            ("kw_download_kib", Number kwe.Lw_sim.Cost_model.kw_download_kib);
            ("compute_overhead", Number kwe.Lw_sim.Cost_model.compute_overhead);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* E27: single-server PIR (Single mode) vs two-server Pir2              *)
(* ------------------------------------------------------------------ *)

let e27_single size =
  section "E27" "Single mode (LWE single-server PIR) vs Pir2: latency, hint, wire bytes";
  let sites, n_pages, ops = if size = Smoke then (4, 48, 24) else if size = Fast then (8, 160, 96) else (12, 320, 192) in
  (* A Single answer is one multiply-accumulate pass over the whole
     store, and the per-epoch hint costs n passes — size the geometry so
     the full run measures a scan-dominated point without minutes of
     hint computation (smoke: 256 KiB database, full: 4 MiB). *)
  let geometry =
    {
      Lightweb.Universe.default_geometry with
      Lightweb.Universe.data_blob_size = (if size = Smoke then 1024 else 4096);
      data_domain_bits = (if size = Smoke then 8 else 10);
    }
  in
  let profile =
    {
      Lw_sim.Corpus.name = "e27-synthetic";
      total_bytes = float_of_int n_pages *. 160.;
      pages = float_of_int n_pages;
      avg_page_bytes = 160.;
    }
  in
  let corpus = Lw_sim.Corpus.generate ~sites ~sigma:0.4 profile ~n_pages (det "e27-corpus") in
  let u = Lightweb.Universe.create ~name:"e27" geometry in
  Array.iter
    (fun site ->
      match Lightweb.Universe.claim_domain u ~publisher:"bench" ~domain:site with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "E27 claim %s: %s" site e))
    corpus.Lw_sim.Corpus.sites;
  let published = ref [] and skipped = ref 0 in
  Array.iter
    (fun (pg : Lw_sim.Corpus.page) ->
      match
        Lightweb.Universe.push_data u ~publisher:"bench" ~path:pg.Lw_sim.Corpus.path
          ~value:(Json.String pg.Lw_sim.Corpus.body)
      with
      | Ok () -> published := pg.Lw_sim.Corpus.path :: !published
      | Error _ -> incr skipped)
    corpus.Lw_sim.Corpus.pages;
  (* stand up the Single server BEFORE publish so the hint is warmed
     (sealed alongside the epoch) rather than computed on first query *)
  let single_srv = Lightweb.Universe.single_data_server u in
  ignore (Lightweb.Universe.publish_updates u);
  let paths = Array.of_list (List.rev !published) in
  if Array.length paths = 0 then failwith "E27: nothing published";
  let hint_formula_bytes =
    Lw_pir.Spir.hint_bytes Lw_pir.Spir.default_params
      ~bucket_size:geometry.Lightweb.Universe.data_blob_size
  in
  Printf.printf "(%d pages published, %d skipped; d=%d, %d B buckets; hint %d B = n=%d rows)\n\n"
    (Array.length paths) !skipped geometry.Lightweb.Universe.data_domain_bits
    geometry.Lightweb.Universe.data_blob_size hint_formula_bytes
    Lw_pir.Spir.default_params.Lw_pir.Spir.n;
  let d0, d1 = Lightweb.Universe.data_servers u in
  let pe0, pc0 = Lw_net.Endpoint.with_counters (Lightweb.Zltp_server.endpoint d0) in
  let pe1, pc1 = Lw_net.Endpoint.with_counters (Lightweb.Zltp_server.endpoint d1) in
  let se, sc = Lw_net.Endpoint.with_counters (Lightweb.Zltp_server.endpoint single_srv) in
  let pir2_client =
    match Lightweb.Zltp_client.connect ~rng:(rng ()) [ pe0; pe1 ] with
    | Ok c -> c
    | Error e -> failwith (Printf.sprintf "E27 pir2 connect: %s" e)
  in
  let single_client =
    match
      Lightweb.Zltp_client.connect ~prefer:[ Lightweb.Zltp_mode.Single ] ~rng:(rng ()) [ se ]
    with
    | Ok c -> c
    | Error e -> failwith (Printf.sprintf "E27 single connect: %s" e)
  in
  Fun.protect ~finally:(fun () ->
      Lightweb.Zltp_client.close pir2_client;
      Lightweb.Zltp_client.close single_client)
  @@ fun () ->
  if Lightweb.Zltp_client.mode single_client <> Lightweb.Zltp_mode.Single then
    failwith "E27: client did not negotiate Single";
  (* oracle: every published path byte-identical under both deployments *)
  Array.iter
    (fun path ->
      let via label r =
        match r with
        | Ok (Some v) -> v
        | Ok None -> failwith (Printf.sprintf "E27 %s GET lost %s" label path)
        | Error e -> failwith (Printf.sprintf "E27 %s GET %s: %s" label path e)
      in
      let two = via "pir2" (Lightweb.Zltp_client.get pir2_client path) in
      let one = via "single" (Lightweb.Zltp_client.get single_client path) in
      if not (String.equal two one) then
        failwith (Printf.sprintf "E27: Single diverged from Pir2 at %s" path))
    paths;
  row "%-24s all %d published paths byte-identical across deployments\n" "oracle"
    (Array.length paths);
  (* per-query wire bytes, measured: the oracle pass above already paid
     the handshake and the per-epoch hint fetch, so one more GET is the
     steady-state query shape *)
  let wire_delta up_c down_c f =
    let base_up = List.fold_left (fun a c -> a + c.Lw_net.Endpoint.sent_bytes) 0 up_c in
    let base_down = List.fold_left (fun a c -> a + c.Lw_net.Endpoint.recv_bytes) 0 down_c in
    f ();
    ( List.fold_left (fun a c -> a + c.Lw_net.Endpoint.sent_bytes) 0 up_c - base_up,
      List.fold_left (fun a c -> a + c.Lw_net.Endpoint.recv_bytes) 0 down_c - base_down )
  in
  let probe = paths.(Array.length paths / 2) in
  let pir2_up, pir2_down =
    wire_delta [ pc0; pc1 ] [ pc0; pc1 ] (fun () ->
        ignore (Lightweb.Zltp_client.get pir2_client probe))
  in
  let single_up, single_down =
    wire_delta [ sc ] [ sc ] (fun () -> ignore (Lightweb.Zltp_client.get single_client probe))
  in
  row "%-24s %8d B up %8d B down   (2 servers, 2 DPF keys)\n" "pir2 per-query wire" pir2_up
    pir2_down;
  row "%-24s %8d B up %8d B down   (1 server, selection vector; hint %d B/epoch amortized)\n"
    "single per-query wire" single_up single_down hint_formula_bytes;
  (* latency: interleaved so drift hits both distributions equally *)
  let pir2_lat = Array.make ops 0.0 in
  let single_lat = Array.make ops 0.0 in
  let timed c path =
    let t0 = Unix.gettimeofday () in
    (match Lightweb.Zltp_client.get c path with
    | Ok (Some _) -> ()
    | Ok None -> failwith (Printf.sprintf "E27: missing record for %s" path)
    | Error e -> failwith (Printf.sprintf "E27: %s" e));
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  Gc.major ();
  for i = 0 to ops - 1 do
    let path = paths.(((i * 7) + 3) mod Array.length paths) in
    if i land 1 = 0 then begin
      pir2_lat.(i) <- timed pir2_client path;
      single_lat.(i) <- timed single_client path
    end
    else begin
      single_lat.(i) <- timed single_client path;
      pir2_lat.(i) <- timed pir2_client path
    end
  done;
  let p a q = Lw_util.Stats.percentile a q in
  let p50_ratio = p single_lat 50. /. Float.max (p pir2_lat 50.) 1e-9 in
  row "%-24s %8.3f ms p50 %8.3f ms p99\n" "pir2 GET" (p pir2_lat 50.) (p pir2_lat 99.);
  row "%-24s %8.3f ms p50 %8.3f ms p99   (p50 ratio %.2fx)\n" "single GET" (p single_lat 50.)
    (p single_lat 99.) p50_ratio;
  (* the three-way C1-C4 columns at the paper's Table-2 point *)
  let three_way =
    Lw_sim.Cost_model.three_way
      (Lw_sim.Cost_model.of_profile Lw_sim.Corpus.c4)
      Lw_sim.Cost_model.paper_shard Lw_sim.Cost_model.c5_large
  in
  List.iter (fun mc -> Format.printf "%a\n" Lw_sim.Cost_model.pp_mode_cost mc) three_way;
  Format.print_flush ();
  Printf.printf
    "\none cryptographic assumption (decision-LWE), one server, no client state beyond a\n\
     public per-epoch hint — paid for in upload bytes and a mul-acc (not XOR) scan.\n";
  let open Json in
  let mode_row mc =
    Obj
      [
        ("mode", String (Lightweb.Zltp_mode.name mc.Lw_sim.Cost_model.mode));
        ("servers", Number (float_of_int mc.Lw_sim.Cost_model.mc_servers));
        ("shards", Number (float_of_int mc.Lw_sim.Cost_model.mc_shards));
        ("vcpu_seconds", Number mc.Lw_sim.Cost_model.mc_vcpu_seconds);
        ("request_cost_usd", Number mc.Lw_sim.Cost_model.mc_request_cost_usd);
        ("upload_kib", Number mc.Lw_sim.Cost_model.mc_upload_kib);
        ("download_kib", Number mc.Lw_sim.Cost_model.mc_download_kib);
        ("latency_floor_s", Number mc.Lw_sim.Cost_model.mc_latency_floor_s);
        ("hint_mib_per_epoch", Number mc.Lw_sim.Cost_model.mc_hint_mib_per_epoch);
      ]
  in
  write_bench size ~id:"E27" "BENCH_single.json"
    [
      ("pages_published", Number (float_of_int (Array.length paths)));
      ("ops", Number (float_of_int ops));
      ( "geometry",
        Obj
          [
            ( "domain_bits",
              Number (float_of_int geometry.Lightweb.Universe.data_domain_bits) );
            ("bucket_bytes", Number (float_of_int geometry.Lightweb.Universe.data_blob_size));
          ] );
      ("hint_bytes_per_epoch", Number (float_of_int hint_formula_bytes));
      ( "pir2_get",
        Obj
          [
            ("p50_ms", Number (p pir2_lat 50.));
            ("p99_ms", Number (p pir2_lat 99.));
            ("query_up_bytes", Number (float_of_int pir2_up));
            ("query_down_bytes", Number (float_of_int pir2_down));
          ] );
      ( "single_get",
        Obj
          [
            ("p50_ms", Number (p single_lat 50.));
            ("p99_ms", Number (p single_lat 99.));
            ("query_up_bytes", Number (float_of_int single_up));
            ("query_down_bytes", Number (float_of_int single_down));
            ("p50_ratio_vs_pir2", Number p50_ratio);
          ] );
      ("three_way_c4", List (List.map mode_row three_way));
    ]

(* ------------------------------------------------------------------ *)
(* The experiment table and the one argv parse                         *)
(* ------------------------------------------------------------------ *)

(* Every experiment in whole-run order: its id, whether it has a smoke
   size, and its run. The smoke sizes are the `dune runtest` gates
   (bench/dune): E12 and E19 fail on any byte difference between AES or
   scan kernel builds, and E24-E27 drive the fleet, cluster, keyword and
   Single paths end to end. *)
let experiments =
  [
    ("E1", false, e1_server_computation);
    ("E2", false, e2_batching);
    ("E3", false, e3_communication);
    ("E4", false, e4_table2);
    ("E5", false, e5_monthly_cost);
    ("E6", false, e6_collisions);
    ("E7", false, e7_distributed);
    ("E8", false, e8_mode_ablation);
    ("E9", false, e9_projection);
    ("E10", false, e10_traffic_analysis);
    ("E11", false, e11_scheme_ablation);
    ("E12", true, e12_prg_ablation);
    ("E13", false, e13_cover_traffic);
    ("E14", false, e14_recursive_oram);
    ("E15", false, e15_latency);
    ("E16", false, e16_heavy_hitters);
    ("E17", false, e17_queue);
    ("E19", true, e19_scan_kernels);
    ("E20", false, e20_chaos_tail_latency);
    ("E21", false, e21_obs_overhead);
    ("E22", false, e22_store_updates);
    ("E23", false, e23_full_lint);
    ("E24", true, e24_fleet);
    ("E25", true, e25_cluster);
    ("E26", true, e26_keyword);
    ("E27", true, e27_single);
  ]

let ids_where p =
  String.concat " "
    (List.filter_map (fun (id, smoke, _) -> if p smoke then Some id else None) experiments)

let usage =
  Printf.sprintf
    "usage: main.exe [--fast | --smoke] [--metrics] [E<n> ...]\n\
    \  no ids runs every experiment (with --smoke, every one that has the size)\n\
    \  ids: %s\n\
    \  with a smoke size: %s\n"
    (ids_where (fun _ -> true))
    (ids_where Fun.id)

(* 64 is sysexits' EX_USAGE; an experiment's uncaught failure exits 2 *)
let usage_error msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 64

let () =
  let size = ref None and metrics = ref false and ids = ref [] in
  let set_size s =
    if !size = None then size := Some s else usage_error "give --fast or --smoke at most once"
  in
  let find id = List.find_opt (fun (e, _, _) -> String.equal e id) experiments in
  List.iter
    (function
      | "--fast" -> set_size Fast
      | "--smoke" -> set_size Smoke
      | "--metrics" -> metrics := true
      | id when find id <> None -> ids := id :: !ids
      | arg -> usage_error ("unknown argument: " ^ arg))
    (List.tl (Array.to_list Sys.argv));
  let size = Option.value !size ~default:Full in
  let chosen =
    if !ids = [] then List.filter (fun (_, smoke, _) -> smoke || size <> Smoke) experiments
    else List.rev_map (fun id -> Option.get (find id)) !ids
  in
  List.iter
    (fun (id, smoke, _) -> if size = Smoke && not smoke then usage_error (id ^ " has no smoke size"))
    chosen;
  Printf.printf "lightweb benchmark harness (%s size): %s\n"
    (match size with Full -> "full" | Fast -> "fast" | Smoke -> "smoke")
    (String.concat " " (List.map (fun (id, _, _) -> id) chosen));
  if !ids = [] && size <> Smoke then begin
    Printf.printf
      "reproducing: §5.1 microbenchmarks, Table 2, §4 economics, §5.2 scale-up, §1 attack\n";
    Printf.printf "\n%s\nkernel microbenchmarks (bechamel, ns/op)\n%s\n" (String.make 78 '=')
      (String.make 78 '=');
    try
      List.iter
        (fun (name, ns) -> Printf.printf "%-28s %12.1f ns %12.3f us\n" name ns (ns /. 1000.))
        (bechamel_kernels size)
    with e -> Printf.printf "bechamel kernels skipped: %s\n" (Printexc.to_string e)
  end;
  List.iter (fun (_, _, run) -> run size) chosen;
  (* after E20 the dump shows the injected-fault, retry and per-shard
     scan histograms with real counts *)
  if !metrics then begin
    Printf.printf "\n%s\nmetrics dump (lw_obs, Prometheus text)\n%s\n" (String.make 78 '=')
      (String.make 78 '=');
    print_string (Lw_obs.Export.to_prometheus ())
  end;
  if !ids = [] then Printf.printf "\nall experiments complete.\n"
