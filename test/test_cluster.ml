(* lw_cluster: the supervised multi-process fleet, exercised with real
   processes on loopback TCP — registration, live epoch rollout,
   kill -9 mid-rollout with automatic recovery, SIGSTOP gray failure
   with client failover, the crash-loop circuit breaker, warm-restart
   catch-up, and fleet metric merging.

   The consistency oracle: every published epoch writes a distinct
   deterministic pattern into EVERY bucket, so any answer a client
   reconstructs must byte-equal some single epoch's pattern. Shares
   XORed across two different epochs (the bug the two-phase rollout
   exists to prevent) produce garbage matching no epoch — so each read
   is an all-or-nothing check for mixed-epoch / partial-XOR answers. *)

(* must be first: shard processes are this executable re-execed *)
let () = Lw_cluster.Worker.run_if_worker ()

module Sup = Lw_cluster.Supervisor
module Fleet_view = Lw_cluster.Fleet_view
module Spec = Lw_cluster.Spec
module Metrics = Lw_obs.Metrics
module Zc = Lightweb.Zltp_client

let domain_bits = 6
let n_buckets = 1 lsl domain_bits
let bucket_size = 64

let state_dir label =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lw_cluster_test_%d_%s" (Unix.getpid ()) label)

let cfg ?(shards = 4) label =
  {
    (Sup.default_config ~state_dir:(state_dir label) ()) with
    Sup.shards;
    domain_bits;
    bucket_size;
    ctl_timeout_s = 1.0;
    health_period_s = 0.2;
    health_timeout_s = 0.5;
  }

let pattern ~epoch i =
  if epoch = 0 then String.make bucket_size '\000'
  else String.init bucket_size (fun k -> Char.chr (((epoch * 31) + (i * 7) + k) land 0xff))

(* full-domain mutation batch for the next epoch *)
let next_muts sup =
  let e = Sup.fleet_epoch sup + 1 in
  List.init n_buckets (fun i -> (i, pattern ~epoch:e i))

let publish_ok sup =
  match Sup.publish sup (next_muts sup) with
  | Sup.Rolled_out { epoch; refreshed } -> (epoch, refreshed)
  | Sup.Rolled_back { reason; _ } -> Alcotest.failf "unexpected rollback: %s" reason

(* returns the epoch the answer came from; fails the test on garbage *)
let read_epoch ~max_epoch client i =
  match Zc.get_raw_index client i with
  | Error e -> Alcotest.failf "get_raw_index %d: %s" i e
  | Ok v -> (
      let rec scan e =
        if e > max_epoch then None
        else if String.equal v (pattern ~epoch:e i) then Some e
        else scan (e + 1)
      in
      match scan 0 with
      | Some e -> e
      | None ->
          Alcotest.failf "bucket %d: answer matches no epoch <= %d (mixed-epoch XOR?)" i
            max_epoch)

let counter name = Metrics.counter_value (Metrics.counter name)

let with_fleet c f =
  let sup = Sup.start c in
  Fun.protect ~finally:(fun () -> Sup.shutdown sup) (fun () -> f sup)

let connect sup =
  match Zc.connect_replicated (Sup.replicas sup) with
  | Ok c -> c
  | Error e -> Alcotest.failf "client connect: %s" e

(* ------------------------- rollout ------------------------- *)

let test_fleet_rollout () =
  with_fleet (cfg "rollout") @@ fun sup ->
  List.iter
    (fun (i : Sup.shard_info) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d up" i.id)
        true (i.state = Sup.Up))
    (Sup.info sup);
  let e1, refreshed = publish_ok sup in
  Alcotest.(check int) "first epoch" 1 e1;
  Alcotest.(check int) "all shards refreshed" 4 refreshed;
  Alcotest.(check bool) "fleet converged" true (Sup.await_fleet sup ~epoch:1);
  let client = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close client) @@ fun () ->
  for i = 0 to n_buckets - 1 do
    Alcotest.(check int) (Printf.sprintf "bucket %d at epoch 1" i) 1
      (read_epoch ~max_epoch:1 client i)
  done;
  (* two more live rollouts while the same client keeps reading: every
     answer must be one coherent epoch, never a blend *)
  for _ = 1 to 2 do
    let e, _ = publish_ok sup in
    Alcotest.(check bool) "converged" true (Sup.await_fleet sup ~epoch:e);
    for i = 0 to 7 do
      ignore (read_epoch ~max_epoch:e client i)
    done
  done;
  Alcotest.(check int) "no failovers in quiet fleet" 0 (Zc.failovers client);
  (* a fresh session sees the newest epoch *)
  let c2 = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close c2) @@ fun () ->
  Alcotest.(check int) "fresh client at epoch 3" 3 (read_epoch ~max_epoch:3 c2 0)

(* ------------------------- kill -9 mid-rollout ------------------------- *)

let test_crash_mid_rollout () =
  (* shard 1's first incarnation dies on its second Refresh — i.e. in
     the middle of rollout 2's phase one, before applying it *)
  let armed = ref true in
  let c =
    {
      (cfg "midrollout") with
      Sup.sabotage =
        (fun id ->
          if id = 1 && !armed then begin
            armed := false;
            { Spec.no_sabotage with die_on_refresh = Some 2 }
          end
          else Spec.no_sabotage);
    }
  in
  with_fleet c @@ fun sup ->
  let rollbacks0 = counter "lw_cluster.rollbacks_total" in
  let restarts0 = counter "lw_cluster.restarts_total" in
  let mttr0 = Metrics.hist_count (Metrics.histogram "lw_cluster.mttr_seconds") in
  let e1, _ = publish_ok sup in
  Alcotest.(check bool) "seeded" true (Sup.await_fleet sup ~epoch:e1);
  let client = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close client) @@ fun () ->
  (* rollout 2: shard 1 dies mid-push; the rollout must roll back and
     the fleet must keep advertising epoch 1 *)
  (match Sup.publish sup (next_muts sup) with
  | Sup.Rolled_back { epoch; _ } -> Alcotest.(check int) "still at epoch 1" 1 epoch
  | Sup.Rolled_out _ -> Alcotest.fail "rollout survived a mid-push crash");
  Alcotest.(check int) "advertised epoch unchanged" 1 (Sup.activated_epoch sup);
  (* reads during the rolled-back state: coherent, and at the pinned old
     epoch as far as this session is concerned *)
  for i = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d still epoch 1" i)
      1
      (read_epoch ~max_epoch:2 client i)
  done;
  (* the supervisor restarts shard 1 (fresh spec, no sabotage), warm
     restart rejoins from the manifest, catch-up reaches the master *)
  Alcotest.(check bool) "shard 1 recovered" true
    (Sup.await_states ~deadline_s:10. sup 1 [ Sup.Up ]);
  Alcotest.(check bool) "restart counted" true
    (counter "lw_cluster.restarts_total" > restarts0);
  Alcotest.(check bool) "rollback counted" true
    (counter "lw_cluster.rollbacks_total" > rollbacks0);
  (* MTTR (death -> caught up and activated) was measured and is small *)
  let mttr = Metrics.histogram "lw_cluster.mttr_seconds" in
  Alcotest.(check bool) "mttr observed" true (Metrics.hist_count mttr > mttr0);
  Alcotest.(check bool) "mttr under 2 s" true (Metrics.hist_max mttr < 2.0);
  (* next rollout goes through on the full fleet and clients converge *)
  let e3, refreshed = publish_ok sup in
  Alcotest.(check int) "all four shards back in the rollout" 4 refreshed;
  Alcotest.(check bool) "fleet at new epoch" true (Sup.await_fleet sup ~epoch:e3);
  let c2 = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close c2) @@ fun () ->
  for i = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "bucket %d fresh" i) e3
      (read_epoch ~max_epoch:e3 c2 i)
  done

(* ------------------------- SIGSTOP gray failure ------------------------- *)

let test_sigstop_failover () =
  with_fleet (cfg "sigstop") @@ fun sup ->
  let e1, _ = publish_ok sup in
  Alcotest.(check bool) "seeded" true (Sup.await_fleet sup ~epoch:e1);
  let client = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close client) @@ fun () ->
  ignore (read_epoch ~max_epoch:e1 client 0);
  (* role 0's session is on shard 0, so freezing shard 0 cuts it *)
  Alcotest.(check (option string)) "role 0 on shard-0 before the freeze" (Some "shard-0")
    (List.hd (Zc.current_replicas client));
  (* freeze shard 0 (a role-0 replica): alive for waitpid, dead for
     clients — the classic gray failure. The kernel stops the process
     after [kill] returns, and under load it has answered several reads
     in that gap, so wait until a Health probe has gone unanswered. *)
  Sup.sigstop sup 0;
  Alcotest.(check bool) "probed as stalled" true
    (Sup.await_states ~deadline_s:10. sup 0 [ Sup.Stalled ]);
  let t0 = Unix.gettimeofday () in
  (* reads must fail over to shard 2 within the health-probe deadline
     budget, and stay coherent *)
  for i = 0 to 7 do
    ignore (read_epoch ~max_epoch:e1 client i)
  done;
  Alcotest.(check bool) "failover under the deadline budget" true
    (Unix.gettimeofday () -. t0 < 5.0);
  Alcotest.(check bool)
    (Printf.sprintf "client failed over (sessions now: %s)"
       (String.concat ", " (List.map (Option.value ~default:"none") (Zc.current_replicas client))))
    true (Zc.failovers client >= 1);
  (* a rollout while the frozen shard is stalled proceeds without it *)
  let e2, refreshed = publish_ok sup in
  Alcotest.(check int) "rollout skipped the frozen shard" 3 refreshed;
  (* thaw: the shard must rejoin cleanly AND be caught up to the epoch
     it slept through *)
  Sup.sigcont sup 0;
  Alcotest.(check bool) "clean rejoin at the new epoch" true
    (Sup.await_fleet ~deadline_s:15. sup ~epoch:e2);
  let c2 = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close c2) @@ fun () ->
  for i = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "bucket %d" i) e2 (read_epoch ~max_epoch:e2 c2 i)
  done

(* ------------------------- crash-loop breaker ------------------------- *)

let test_crash_loop_breaker () =
  let c =
    {
      (cfg ~shards:2 "crashloop") with
      Sup.crash_loop_max = 3;
      sabotage =
        (fun id ->
          if id = 1 then { Spec.no_sabotage with die_after_register = true }
          else Spec.no_sabotage);
    }
  in
  let degraded0 = counter "lw_cluster.degraded_total" in
  with_fleet c @@ fun sup ->
  Alcotest.(check bool) "breaker tripped" true
    (Sup.await_states ~deadline_s:20. sup 1 [ Sup.Degraded ]);
  Alcotest.(check bool) "shard 0 unaffected" true (Sup.shard_state sup 0 = Sup.Up);
  Alcotest.(check bool) "degraded counted" true
    (counter "lw_cluster.degraded_total" > degraded0);
  let i1 = List.nth (Sup.info sup) 1 in
  Alcotest.(check bool) "breaker saw the crash loop" true (i1.Sup.restarts >= 2);
  Alcotest.(check bool) "no process left" true (i1.Sup.pid = None);
  (* the rest of the fleet still takes rollouts *)
  let _, refreshed = publish_ok sup in
  Alcotest.(check int) "healthy shard refreshed" 1 refreshed;
  (* and the breaker holds: no further restarts accrue while we watch *)
  let r = (List.nth (Sup.info sup) 1).Sup.restarts in
  Unix.sleepf 0.5;
  Alcotest.(check int) "breaker latched" r (List.nth (Sup.info sup) 1).Sup.restarts

(* A registration that arrives after the reaper handled its sender's
   death: a die_after_register shard can die before the supervisor reads
   its Register. Adopting the dead pid again made the reaper count that
   one death twice (waitpid then fails with ECHILD), which trips the
   breaker early. The late registration must be refused, and the death
   counted once. *)
let test_stale_registration () =
  let c =
    { (cfg ~shards:1 "staleregister") with Sup.restart_backoff_s = 2.; restart_backoff_max_s = 2. }
  in
  with_fleet c @@ fun sup ->
  let i0 = List.hd (Sup.info sup) in
  let pid = Option.get i0.Sup.pid and zltp_port = Option.get i0.Sup.zltp_port in
  let deaths0 = counter "lw_cluster.deaths_total" in
  Sup.kill sup 0;
  Alcotest.(check bool) "death handled" true (Sup.await_states ~deadline_s:5. sup 0 [ Sup.Down ]);
  let ep = Lw_net.Tcp.connect ~host:c.Sup.host ~port:(Sup.ctl_port sup) () in
  Fun.protect ~finally:(fun () -> ep.Lw_net.Endpoint.close ()) @@ fun () ->
  Lw_cluster.Ctl.send ep
    (Lw_cluster.Ctl.Register
       { shard_id = 0; pid; zltp_port; epoch = i0.Sup.epoch; advertised = i0.Sup.advertised });
  Alcotest.(check bool) "registration refused" true
    (match Lw_cluster.Ctl.recv ep with
    | exception (Lw_net.Endpoint.Closed | Lw_net.Endpoint.Timeout) -> true
    | _ -> false);
  (* the reaper polls every 20 ms *)
  Unix.sleepf 0.2;
  Alcotest.(check int) "one death counted once" (deaths0 + 1) (counter "lw_cluster.deaths_total");
  let i1 = List.hd (Sup.info sup) in
  Alcotest.(check bool) "still down, no pid" true (i1.Sup.state = Sup.Down && i1.Sup.pid = None)

(* ------------------------- warm restart + diff catch-up ---------------- *)

let test_warm_restart_catchup () =
  (* slow the restart down so a rollout lands while the shard is dead —
     forcing the incremental diff catch-up path on rejoin *)
  let c =
    {
      (cfg "warmrestart") with
      Sup.restart_backoff_s = 0.4;
      restart_backoff_max_s = 0.4;
    }
  in
  with_fleet c @@ fun sup ->
  let e1, _ = publish_ok sup in
  let e2, _ = publish_ok sup in
  ignore e1;
  Alcotest.(check bool) "seeded" true (Sup.await_fleet sup ~epoch:e2);
  let diff0 = counter "lw_cluster.catchup_diff_total" in
  let mttr_h = Metrics.histogram "lw_cluster.mttr_seconds" in
  let mttr0 = Metrics.hist_count mttr_h in
  Sup.kill sup 2;
  Alcotest.(check bool) "death noticed" true
    (Sup.await_states ~deadline_s:5. sup 2 [ Sup.Down; Sup.Starting ]);
  (* publish while shard 2 is dead: it will wake up one epoch behind *)
  let e3, refreshed = publish_ok sup in
  Alcotest.(check int) "rollout on the survivors" 3 refreshed;
  Alcotest.(check bool) "rejoined at the fleet epoch" true
    (Sup.await_fleet ~deadline_s:15. sup ~epoch:e3);
  let i2 = List.nth (Sup.info sup) 2 in
  Alcotest.(check int) "warm shard sealed the fleet epoch" e3 i2.Sup.epoch;
  Alcotest.(check bool) "caught up via incremental diff" true
    (counter "lw_cluster.catchup_diff_total" > diff0);
  Alcotest.(check bool) "mttr observed" true (Metrics.hist_count mttr_h > mttr0);
  Alcotest.(check bool) "kill -9 MTTR under 2 s" true (Metrics.hist_max mttr_h < 2.0);
  (* the warm restart actually reloaded state: the shard's own counter
     says so, through the fleet scrape *)
  let view = Sup.scrape sup in
  Alcotest.(check bool) "warm restart counted by the shard" true
    (Fleet_view.counter view "lw_cluster.shard.warm_restarts_total" >= 1);
  let client = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close client) @@ fun () ->
  for i = 0 to n_buckets - 1 do
    Alcotest.(check int) (Printf.sprintf "bucket %d" i) e3 (read_epoch ~max_epoch:e3 client i)
  done

(* ------------------------- fleet metrics ------------------------- *)

let test_fleet_scrape_merges () =
  with_fleet (cfg "scrape") @@ fun sup ->
  let e1, _ = publish_ok sup in
  Alcotest.(check bool) "seeded" true (Sup.await_fleet sup ~epoch:e1);
  let client = connect sup in
  Fun.protect ~finally:(fun () -> Zc.close client) @@ fun () ->
  for i = 0 to 7 do
    ignore (read_epoch ~max_epoch:e1 client i)
  done;
  let view = Sup.scrape sup in
  (* supervisor + 4 shards *)
  Alcotest.(check int) "five sources" 5 (Fleet_view.sources view);
  (* each of the 4 shards applied the seed refresh exactly once *)
  Alcotest.(check int) "refreshes sum across processes" 4
    (Fleet_view.counter view "lw_cluster.shard.refreshes_total");
  Alcotest.(check bool) "rollouts visible" true
    (Fleet_view.counter view "lw_cluster.rollouts_total" >= 1);
  (* queries were served by shard processes, and their latency
     histograms merged into a fleet view with consistent counts *)
  match Fleet_view.histogram view "span.zltp.pir.answer" with
  | Some h ->
      Alcotest.(check bool) "fleet histogram has samples" true (h.Metrics.count > 0);
      Alcotest.(check bool) "quantiles ordered" true
        (h.Metrics.p50 <= h.Metrics.p95 && h.Metrics.p95 <= h.Metrics.p99 +. 1e-9);
      Alcotest.(check bool) "max bounds p99" true (h.Metrics.p99 <= h.Metrics.max +. 1e-9)
  | None ->
      (* span name differs across configs: fall back to any merged hist *)
      Alcotest.(check bool) "some histogram merged" true
        (Fleet_view.histogram view "lw_cluster.rollout_seconds" <> None)

let () =
  Alcotest.run "lw_cluster"
    [
      ( "fleet",
        [
          Alcotest.test_case "spawn + live rollouts" `Quick test_fleet_rollout;
          Alcotest.test_case "fleet scrape merges" `Quick test_fleet_scrape_merges;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "kill mid-rollout rolls back + recovers" `Quick
            test_crash_mid_rollout;
          Alcotest.test_case "SIGSTOP failover + rejoin" `Quick test_sigstop_failover;
          Alcotest.test_case "crash-loop breaker degrades" `Quick test_crash_loop_breaker;
          Alcotest.test_case "late registration of a dead shard refused" `Quick
            test_stale_registration;
          Alcotest.test_case "warm restart diff catch-up" `Quick test_warm_restart_catchup;
        ] );
    ]
