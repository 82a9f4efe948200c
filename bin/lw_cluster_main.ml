(* lw_cluster — run a supervised multi-process ZLTP fleet on loopback.

     lw_cluster run [--shards N] [--domain-bits B] [--bucket-size S]
                    [--rollouts K] [--churn N] [--chaos] [--state-dir DIR]

   Spawns the fleet (this same executable re-execed per shard), seeds a
   deterministic corpus, drives K live epoch rollouts while a PIR client
   keeps reading, optionally SIGKILLs a shard mid-run to show recovery,
   and prints the merged fleet metrics before shutting down. Without
   --state-dir the shards' state goes to $TMPDIR/lw_cluster-<pid>, which
   is removed on exit. An unknown argument or a non-integer value prints
   the usage and exits 64 before any process is spawned. *)

let () = Lw_cluster.Worker.run_if_worker ()

module Sup = Lw_cluster.Supervisor

let usage () =
  prerr_endline
    "usage: lw_cluster run [--shards N] [--domain-bits B] [--bucket-size S]\n\
    \                      [--rollouts K] [--churn N] [--chaos] [--state-dir DIR]";
  exit 64

let bucket_value rng size =
  (* printable deterministic payloads so wire captures stay readable *)
  String.init size (fun _ -> Char.chr (97 + Lw_util.Det_rng.int rng 26))

let print_fleet sup =
  List.iter
    (fun (i : Sup.shard_info) ->
      Printf.printf "  shard %d: %-8s pid=%-6s port=%-5s epoch=%d advertised=%d restarts=%d\n"
        i.id (Sup.state_name i.state)
        (match i.pid with Some p -> string_of_int p | None -> "-")
        (match i.zltp_port with Some p -> string_of_int p | None -> "-")
        i.epoch i.advertised i.restarts)
    (Sup.info sup)

let run argv =
  let shards = ref 4 and domain_bits = ref 8 and bucket_size = ref 512 in
  let rollouts = ref 3 and churn = ref 16 and chaos = ref false and given_dir = ref "" in
  (* argv.(1) is "run"; the flags follow it *)
  (try
     Arg.parse_argv ~current:(ref 1) argv
       [
         ("--shards", Arg.Set_int shards, "");
         ("--domain-bits", Arg.Set_int domain_bits, "");
         ("--bucket-size", Arg.Set_int bucket_size, "");
         ("--rollouts", Arg.Set_int rollouts, "");
         ("--churn", Arg.Set_int churn, "");
         ("--chaos", Arg.Set chaos, "");
         ("--state-dir", Arg.Set_string given_dir, "");
       ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       ""
   with
  | Arg.Bad msg ->
      prerr_endline (List.hd (String.split_on_char '\n' msg));
      usage ()
  | Arg.Help _ -> usage ());
  let shards = !shards and domain_bits = !domain_bits and bucket_size = !bucket_size in
  let rollouts = !rollouts and churn = !churn and chaos = !chaos in
  let state_dir =
    if !given_dir <> "" then !given_dir
    else
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "lw_cluster-%d" (Unix.getpid ()))
  in
  let cfg =
    { (Sup.default_config ~state_dir ()) with shards; domain_bits; bucket_size }
  in
  Printf.printf "lw_cluster: %d shards, 2^%d buckets x %dB, state in %s\n%!" shards
    domain_bits bucket_size state_dir;
  let sup = Sup.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Sup.shutdown sup;
      (* every shard is reaped: a state directory of this run's own, one
         flat directory of data and manifests, can go *)
      if !given_dir = "" then begin
        Array.iter (fun f -> Sys.remove (Filename.concat state_dir f)) (Sys.readdir state_dir);
        Sys.rmdir state_dir
      end)
  @@ fun () ->
  print_fleet sup;
  let rng = Lw_util.Det_rng.of_string_seed "lw_cluster/cli" in
  let n = 1 lsl domain_bits in
  (* seed: fill a third of the domain *)
  let seed = List.init (n / 3) (fun k -> (3 * k, bucket_value rng bucket_size)) in
  (match Sup.publish sup seed with
  | Sup.Rolled_out { epoch; refreshed } ->
      Printf.printf "seeded epoch %d across %d shards\n%!" epoch refreshed
  | Sup.Rolled_back { reason; _ } -> Printf.printf "seed rolled back: %s\n%!" reason);
  let client =
    if shards >= 2 then
      match Lightweb.Zltp_client.connect_replicated (Sup.replicas sup) with
      | Ok c -> Some c
      | Error e ->
          Printf.printf "client connect failed: %s\n%!" e;
          None
    else None
  in
  for k = 1 to rollouts do
    if chaos && k = (rollouts / 2) + 1 then begin
      Printf.printf "chaos: SIGKILL shard 0\n%!";
      Sup.kill sup 0
    end;
    let muts =
      List.init (max 1 (n * churn / 100)) (fun _ ->
          (Lw_util.Det_rng.int rng n, bucket_value rng bucket_size))
    in
    (match Sup.publish sup muts with
    | Sup.Rolled_out { epoch; refreshed } ->
        Printf.printf "rollout %d -> epoch %d (%d shards)\n%!" k epoch refreshed
    | Sup.Rolled_back { epoch; reason } ->
        Printf.printf "rollout %d rolled back (still at %d): %s\n%!" k epoch reason);
    match client with
    | None -> ()
    | Some c -> (
        match Lightweb.Zltp_client.get_raw_index c (Lw_util.Det_rng.int rng n) with
        | Ok _ -> ()
        | Error e -> Printf.printf "client read failed: %s\n%!" e)
  done;
  ignore (Sup.await_fleet ~deadline_s:10. sup ~epoch:(Sup.activated_epoch sup));
  print_fleet sup;
  let view = Sup.scrape sup in
  Printf.printf "fleet metrics (%d sources):\n" (Lw_cluster.Fleet_view.sources view);
  List.iter
    (fun name ->
      Printf.printf "  %-32s %d\n" name (Lw_cluster.Fleet_view.counter view name))
    [
      "lw_cluster.restarts_total"; "lw_cluster.rollouts_total";
      "lw_cluster.rollbacks_total"; "lw_cluster.deaths_total";
      "lw_cluster.shard.refreshes_total"; "lw_cluster.shard.warm_restarts_total";
    ];
  (match Lw_cluster.Fleet_view.histogram view "lw_cluster.mttr_seconds" with
  | Some h when h.Lw_obs.Metrics.count > 0 ->
      Printf.printf "  mttr: count=%d p50=%.3fs max=%.3fs\n" h.count h.p50 h.max
  | _ -> ());
  match client with Some c -> Lightweb.Zltp_client.close c | None -> ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: _ ->
      run Sys.argv;
      Printf.printf "done.\n%!"
  | _ -> usage ()
