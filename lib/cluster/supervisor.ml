(* The fleet supervisor. Concurrency layout:

   - ctl server handler threads (one per shard connection, owned by
     Tcp.serve): read the Register, run catch-up, then park on
     [state_cv] holding the connection open — all later traffic on the
     connection is strict request/reply driven by other threads through
     [rpc], serialized per shard by [rpc_mu].
   - the reaper thread polls waitpid(WNOHANG) and turns process deaths
     into Down/Degraded transitions + restarter threads;
   - the prober thread dials each Up shard's data port and exchanges a
     real ZLTP Health frame — catching the process that is alive for
     waitpid but frozen for clients (SIGSTOP, the gray failure);
   - publish/catch-up both hold [rollout_mu], so a registering shard can
     never interleave with a rollout half-way.

   Locks nest rpc_mu -> state_mu; rollout_mu is taken outermost only. *)

module Metrics = Lw_obs.Metrics
module Clock = Lw_obs.Clock
module Endpoint = Lw_net.Endpoint
module Tcp = Lw_net.Tcp
module Det_rng = Lw_util.Det_rng

let m_restarts = Metrics.counter "lw_cluster.restarts_total"
let m_rollouts = Metrics.counter "lw_cluster.rollouts_total"
let m_rollbacks = Metrics.counter "lw_cluster.rollbacks_total"
let m_degraded = Metrics.counter "lw_cluster.degraded_total"
let m_catchup_diff = Metrics.counter "lw_cluster.catchup_diff_total"
let m_catchup_full = Metrics.counter "lw_cluster.catchup_full_total"
let m_deaths = Metrics.counter "lw_cluster.deaths_total"
let m_mttr = Metrics.histogram "lw_cluster.mttr_seconds"
let m_rollout_time = Metrics.histogram "lw_cluster.rollout_seconds"

type config = {
  shards : int;
  domain_bits : int;
  bucket_size : int;
  keep : int;
  master_keep : int;
  state_dir : string;
  host : string;
  self : string;
  ctl_timeout_s : float;
  health_period_s : float;
  health_timeout_s : float;
  restart_backoff_s : float;
  restart_backoff_max_s : float;
  crash_loop_window_s : float;
  crash_loop_max : int;
  start_deadline_s : float;
  sabotage : int -> Spec.sabotage;
}

let default_config ~state_dir () =
  {
    shards = 4;
    domain_bits = 8;
    bucket_size = 1024;
    keep = 3;
    master_keep = 8;
    state_dir;
    host = "127.0.0.1";
    self = Sys.executable_name;
    ctl_timeout_s = 5.;
    health_period_s = 0.5;
    health_timeout_s = 1.;
    restart_backoff_s = 0.1;
    restart_backoff_max_s = 1.;
    crash_loop_window_s = 10.;
    crash_loop_max = 5;
    start_deadline_s = 15.;
    sabotage = (fun _ -> Spec.no_sabotage);
  }

type state = Starting | Up | Stalled | Down | Degraded

let state_name = function
  | Starting -> "starting"
  | Up -> "up"
  | Stalled -> "stalled"
  | Down -> "down"
  | Degraded -> "degraded"

type shard_info = {
  id : int;
  state : state;
  pid : int option;
  zltp_port : int option;
  epoch : int;
  advertised : int;
  restarts : int;
}

type shard = {
  sid : int;
  mutable st : state;
  mutable spid : int;  (* -1 = no process *)
  mutable port : int;  (* -1 = unknown *)
  mutable sepoch : int;
  mutable sadvertised : int;
  mutable ctl : Endpoint.t option;
  mutable srestarts : int;
  mutable crash_times : float list;  (* clock times of recent deaths *)
  mutable down_since : float option;  (* MTTR stopwatch *)
  rpc_mu : Mutex.t;
}

type t = {
  cfg : config;
  master : Lw_store.t;
  fleet : shard array;
  ctl_srv : Tcp.server;
  clock : Clock.t;
  rng : Det_rng.t;  (* backoff jitter; guarded by state_mu *)
  rollout_mu : Mutex.t;
  state_mu : Mutex.t;
  state_cv : Condition.t;
  mutable activated : int;
  mutable stopping : bool;
  mutable threads : Thread.t list;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let now t = Clock.now t.clock

let locked t f = with_lock t.state_mu f

(* ------------------------------------------------------------------ *)
(* Control RPC                                                         *)
(* ------------------------------------------------------------------ *)

let rpc t s msg =
  with_lock s.rpc_mu (fun () ->
      match locked t (fun () -> s.ctl) with
      | None -> Error "no control channel"
      | Some ep -> (
          match
            Ctl.send ep msg;
            Ctl.recv ep
          with
          | Ok reply -> Ok reply
          | Error e -> Error e
          | exception Endpoint.Closed -> Error "control channel closed"
          | exception Endpoint.Timeout -> Error "control reply timed out"))

(* ------------------------------------------------------------------ *)
(* Pushing epochs to shards                                            *)
(* ------------------------------------------------------------------ *)

(* Bound each wire range: hex-encoded bucket runs stay far under the
   frame cap and the shard applies them incrementally. *)
let max_range_buckets = 512

let chunk_ranges snap ranges =
  let bs = Lw_store.Snapshot.bucket_size snap in
  List.concat_map
    (fun (base, count) ->
      let rec split base count acc =
        if count = 0 then List.rev acc
        else
          let n = min count max_range_buckets in
          let buf = Buffer.create (n * bs) in
          for i = base to base + n - 1 do
            Buffer.add_string buf (Lw_store.Snapshot.get snap i)
          done;
          split (base + n) (count - n)
            ({ Ctl.base; count = n; data = Buffer.contents buf } :: acc)
      in
      split base count [])
    ranges

let send_refresh t s ~base_epoch ~target_epoch ~ranges =
  match rpc t s (Ctl.Refresh { base_epoch; target_epoch; ranges }) with
  | Ok (Ctl.Ack { epoch }) ->
      locked t (fun () -> s.sepoch <- epoch);
      Ok epoch
  | Ok (Ctl.Ctl_err { message }) -> Error message
  | Ok _ -> Error "unexpected refresh reply"
  | Error e -> Error e

let full_push t s target =
  Metrics.incr m_catchup_full;
  send_refresh t s ~base_epoch:(-1)
    ~target_epoch:(Lw_store.Snapshot.epoch target)
    ~ranges:(chunk_ranges target [ (0, Lw_store.Snapshot.size target) ])

(* Incremental when the shard's epoch is still live on the master (its
   pin succeeds), falling back to an unconditional full replacement —
   so a shard that diverged in any way still converges. *)
let refresh_shard t s ~base_epoch target =
  let diff =
    if base_epoch < 0 then None
    else
      match Lw_store.pin t.master ~epoch:base_epoch with
      | Error _ -> None
      | Ok old ->
          Fun.protect
            ~finally:(fun () -> Lw_store.unpin t.master old)
            (fun () -> Some (Lw_store.Snapshot.diff_ranges old target))
  in
  match diff with
  | None -> full_push t s target
  | Some ranges -> (
      Metrics.incr m_catchup_diff;
      match
        send_refresh t s ~base_epoch
          ~target_epoch:(Lw_store.Snapshot.epoch target)
          ~ranges:(chunk_ranges target ranges)
      with
      | Ok e -> Ok e
      | Error _ -> full_push t s target)

let activate_shard t s epoch =
  match rpc t s (Ctl.Activate { epoch }) with
  | Ok (Ctl.Ack _) ->
      locked t (fun () -> s.sadvertised <- epoch);
      true
  | Ok _ | Error _ -> false

(* Bring a (re)registered shard to the master's sealed epoch and the
   fleet's advertised epoch. Caller holds [rollout_mu]. *)
let catch_up t s =
  let target = Lw_store.current t.master in
  let base = locked t (fun () -> s.sepoch) in
  let sealed =
    if base = Lw_store.Snapshot.epoch target then true
    else match refresh_shard t s ~base_epoch:base target with Ok _ -> true | Error _ -> false
  in
  sealed && activate_shard t s t.activated

(* ------------------------------------------------------------------ *)
(* Process lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let spawn t id =
  let spec =
    {
      Spec.shard_id = id;
      ctl_host = t.cfg.host;
      ctl_port = Tcp.port t.ctl_srv;
      domain_bits = t.cfg.domain_bits;
      bucket_size = t.cfg.bucket_size;
      keep = t.cfg.keep;
      state_dir = t.cfg.state_dir;
      sabotage = t.cfg.sabotage id;
    }
  in
  Unix.create_process t.cfg.self
    (Worker.argv_for ~self:t.cfg.self spec)
    Unix.stdin Unix.stdout Unix.stderr

(* under state_mu *)
let close_ctl s =
  match s.ctl with
  | None -> ()
  | Some ep ->
      (try ep.Endpoint.close () with Endpoint.Closed -> ());
      s.ctl <- None

let rec respawn t s =
  let spawned =
    locked t (fun () ->
        if t.stopping || s.st <> Down then false
        else begin
          s.spid <- spawn t s.sid;
          s.st <- Starting;
          s.srestarts <- s.srestarts + 1;
          Metrics.incr m_restarts;
          true
        end)
  in
  if spawned then Condition.broadcast t.state_cv

and handle_death t s =
  let tdead = now t in
  Metrics.incr m_deaths;
  let delay =
    locked t (fun () ->
        s.spid <- -1;
        s.port <- -1;
        close_ctl s;
        if s.down_since = None then s.down_since <- Some tdead;
        if s.st = Degraded || t.stopping then None
        else begin
          s.crash_times <-
            tdead
            :: List.filter
                 (fun tc -> tdead -. tc <= t.cfg.crash_loop_window_s)
                 s.crash_times;
          let recent = List.length s.crash_times in
          if recent >= t.cfg.crash_loop_max then begin
            s.st <- Degraded;
            Metrics.incr m_degraded;
            None
          end
          else begin
            s.st <- Down;
            let backoff =
              Float.min
                (t.cfg.restart_backoff_s *. (2. ** float_of_int (recent - 1)))
                t.cfg.restart_backoff_max_s
            in
            Some (backoff +. Det_rng.float t.rng (0.5 *. t.cfg.restart_backoff_s))
          end
        end)
  in
  Condition.broadcast t.state_cv;
  match delay with
  | None -> ()
  | Some d ->
      ignore
        (Thread.create
           (fun () ->
             Clock.sleep t.clock d;
             respawn t s)
           ())

let reaper t =
  while not (locked t (fun () -> t.stopping)) do
    let deaths =
      locked t (fun () ->
          Array.to_list t.fleet
          |> List.filter (fun s ->
                 s.spid > 0
                 &&
                 match Unix.waitpid [ Unix.WNOHANG ] s.spid with
                 | 0, _ -> false
                 | _ -> true
                 | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true))
    in
    List.iter (handle_death t) deaths;
    Clock.sleep t.clock 0.02
  done

(* ------------------------------------------------------------------ *)
(* Liveness probing (data plane)                                       *)
(* ------------------------------------------------------------------ *)

module Wire = Lightweb.Zltp_wire

let probe_shard t s port =
  match
    Tcp.connect ~connect_timeout_s:t.cfg.health_timeout_s
      ~recv_timeout_s:t.cfg.health_timeout_s ~host:t.cfg.host ~port ()
  with
  | exception (Endpoint.Timeout | Unix.Unix_error _) -> false
  | ep ->
      Fun.protect
        ~finally:(fun () -> try ep.Endpoint.close () with Endpoint.Closed -> ())
        (fun () ->
          match
            ep.Endpoint.send (Wire.encode_client (Wire.Health { qid = s.sid }));
            Wire.decode_server (ep.Endpoint.recv ())
          with
          | Ok (Wire.Health_reply { epoch; _ }) ->
              locked t (fun () -> s.sadvertised <- epoch);
              true
          | Ok _ | Error _ -> false
          | exception (Endpoint.Closed | Endpoint.Timeout | Lw_net.Frame.Malformed _) ->
              false)

let prober t =
  while not (locked t (fun () -> t.stopping)) do
    Array.iter
      (fun s ->
        let target =
          locked t (fun () ->
              match s.st with (Up | Stalled) when s.port > 0 -> Some s.port | _ -> None)
        in
        match target with
        | None -> ()
        | Some port ->
            let alive = probe_shard t s port in
            let changed =
              locked t (fun () ->
                  match (s.st, alive) with
                  | Up, false ->
                      s.st <- Stalled;
                      `Stalled
                  | Stalled, true ->
                      s.st <- Up;
                      `Revived
                  | _ -> `Same)
            in
            (match changed with
            | `Same -> ()
            | `Stalled -> Condition.broadcast t.state_cv
            | `Revived ->
                (* Rollouts skip Stalled shards, so a revived shard may
                   have slept through epochs: catch it up off-thread (a
                   publish may hold rollout_mu right now) before anyone
                   trusts its advertisement again. *)
                ignore
                  (Thread.create
                     (fun () ->
                       ignore (with_lock t.rollout_mu (fun () -> catch_up t s));
                       Condition.broadcast t.state_cv)
                     ());
                Condition.broadcast t.state_cv))
      t.fleet;
    Clock.sleep t.clock t.cfg.health_period_s
  done

(* ------------------------------------------------------------------ *)
(* Control-plane server                                                *)
(* ------------------------------------------------------------------ *)

let same_ctl s ep = match s.ctl with Some e -> e == ep | None -> false

let park t s ep =
  locked t (fun () ->
      while (not t.stopping) && same_ctl s ep do
        Condition.wait t.state_cv t.state_mu
      done)

(* A registered shard joins: catch it up, mark it Up and hold its
   connection open for RPCs until it is replaced or the fleet shuts
   down; a failed catch-up drops the connection instead, which fails the
   shard's next recv and sends it through the restart path. *)
let join t s ep down_since =
  let ok = with_lock t.rollout_mu (fun () -> catch_up t s) in
  let keep =
    locked t (fun () ->
        if ok && same_ctl s ep then begin
          s.st <- Up;
          (match down_since with
          | Some td ->
              Metrics.observe m_mttr (now t -. td);
              s.down_since <- None
          | None -> ());
          true
        end
        else same_ctl s ep)
  in
  Condition.broadcast t.state_cv;
  if ok && keep then park t s ep
  else locked t (fun () -> if same_ctl s ep then s.ctl <- None)

(* A registration is taken only from the process the shard last
   spawned, while it lives: [spawn] records the pid before the child can
   dial in, and [handle_death] clears it. One that arrives after the
   reaper has handled its sender's death is refused (the control server
   then closes its connection): adopting the dead pid again would have
   the reaper count that death twice. *)
let handle_register t ep ~shard_id ~pid ~zltp_port ~epoch ~advertised =
  let s = t.fleet.(shard_id) in
  let adopted =
    locked t (fun () ->
        if s.spid <= 0 || s.spid <> pid then None
        else begin
          (match s.ctl with
          | Some old when old != ep -> close_ctl s
          | _ -> ());
          s.ctl <- Some ep;
          s.port <- zltp_port;
          s.sepoch <- epoch;
          s.sadvertised <- advertised;
          Some s.down_since
        end)
  in
  Option.iter (join t s ep) adopted

let ctl_handler t ep =
  match Ctl.recv ep with
  | exception (Endpoint.Closed | Endpoint.Timeout) -> ()
  | Error _ -> ()
  | Ok (Ctl.Register { shard_id; pid; zltp_port; epoch; advertised })
    when shard_id >= 0 && shard_id < Array.length t.fleet ->
      handle_register t ep ~shard_id ~pid ~zltp_port ~epoch ~advertised
  | Ok _ -> ()

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let info t =
  locked t (fun () ->
      Array.to_list t.fleet
      |> List.map (fun s ->
             {
               id = s.sid;
               state = s.st;
               pid = (if s.spid > 0 then Some s.spid else None);
               zltp_port = (if s.port > 0 then Some s.port else None);
               epoch = s.sepoch;
               advertised = s.sadvertised;
               restarts = s.srestarts;
             }))

let fleet_epoch t = Lw_store.current_epoch t.master
let activated_epoch t = t.activated
let shard_state t id = locked t (fun () -> t.fleet.(id).st)

type rollout_result =
  | Rolled_out of { epoch : int; refreshed : int }
  | Rolled_back of { epoch : int; reason : string }

let publish t muts =
  with_lock t.rollout_mu @@ fun () ->
  let t0 = now t in
  let prev = Lw_store.pin_latest t.master in
  Fun.protect ~finally:(fun () -> Lw_store.unpin t.master prev) @@ fun () ->
  let w = Lw_store.writer t.master in
  List.iter
    (fun (i, bytes) ->
      if bytes = "" then Lw_store.Writer.clear w i else Lw_store.Writer.set w i bytes)
    muts;
  let next = Lw_store.Writer.seal w in
  let target_epoch = Lw_store.Snapshot.epoch next in
  Metrics.incr m_rollouts;
  let old_epoch = t.activated in
  let eligible =
    locked t (fun () -> Array.to_list t.fleet |> List.filter (fun s -> s.st = Up))
  in
  (* phase one: seal the new epoch everywhere, announcing nothing *)
  let refresh_failures =
    List.filter_map
      (fun s ->
        let base = locked t (fun () -> s.sepoch) in
        match refresh_shard t s ~base_epoch:base next with
        | Ok _ -> None
        | Error e -> Some (s.sid, e))
      eligible
  in
  match refresh_failures with
  | (sid, reason) :: _ ->
      (* rollback by omission: no shard was told to advertise
         [target_epoch], so every answer the fleet gives still names
         [old_epoch] — there is nothing to un-publish *)
      Metrics.incr m_rollbacks;
      Rolled_back
        { epoch = old_epoch; reason = Printf.sprintf "shard %d refresh: %s" sid reason }
  | [] -> (
      (* phase two: flip the advertisement *)
      let flipped, flip_failed =
        List.partition (fun s -> activate_shard t s target_epoch) eligible
      in
      match flip_failed with
      | [] ->
          t.activated <- target_epoch;
          Metrics.observe m_rollout_time (now t -. t0);
          Rolled_out { epoch = target_epoch; refreshed = List.length eligible }
      | s :: _ ->
          (* un-flip whoever already advertised the new epoch *)
          List.iter (fun s -> ignore (activate_shard t s old_epoch)) flipped;
          Metrics.incr m_rollbacks;
          Rolled_back
            {
              epoch = old_epoch;
              reason = Printf.sprintf "shard %d failed to activate %d" s.sid target_epoch;
            })

let replicas ?(roles = 2) t =
  if roles < 1 then invalid_arg "Supervisor.replicas: roles must be >= 1";
  List.init roles (fun r ->
      Array.to_list t.fleet
      |> List.filter (fun s -> s.sid mod roles = r)
      |> List.map (fun s ->
             Lightweb.Zltp_client.replica
               ~name:(Printf.sprintf "shard-%d" s.sid)
               (fun () ->
                 let port = locked t (fun () -> s.port) in
                 if port <= 0 then Error (Printf.sprintf "shard %d is down" s.sid)
                 else
                   try
                     let ep =
                       Tcp.connect ~connect_timeout_s:t.cfg.health_timeout_s
                         ~recv_timeout_s:t.cfg.ctl_timeout_s ~host:t.cfg.host ~port ()
                     in
                     Ok ep
                   with
                   | Endpoint.Timeout -> Error (Printf.sprintf "shard %d dial timeout" s.sid)
                   | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))))

let scrape t =
  let view = Fleet_view.create () in
  Fleet_view.ingest view (Lw_obs.Export.to_prometheus ());
  Array.iter
    (fun s ->
      match rpc t s Ctl.Scrape with
      | Ok (Ctl.Scrape_reply { text }) -> (
          try Fleet_view.ingest view text with Failure _ -> ())
      | Ok _ | Error _ -> ())
    t.fleet;
  view

let send_signal t id sg =
  match locked t (fun () -> t.fleet.(id).spid) with
  | p when p > 0 -> ( try Unix.kill p sg with Unix.Unix_error _ -> ())
  | _ -> ()

let kill t id = send_signal t id Sys.sigkill
let sigstop t id = send_signal t id Sys.sigstop
let sigcont t id = send_signal t id Sys.sigcont
let ctl_port t = Tcp.port t.ctl_srv

let await ?(deadline_s = 10.) t pred =
  let deadline = now t +. deadline_s in
  let rec go () =
    if locked t pred then true
    else if now t >= deadline then false
    else begin
      Clock.sleep t.clock 0.02;
      go ()
    end
  in
  go ()

let await_states ?deadline_s t id states =
  await ?deadline_s t (fun () -> List.mem t.fleet.(id).st states)

let await_fleet ?deadline_s t ~epoch =
  await ?deadline_s t (fun () ->
      Array.for_all
        (fun s -> s.st = Degraded || (s.st = Up && s.sadvertised = epoch))
        t.fleet)

let shutdown t =
  let already = locked t (fun () ->
      let was = t.stopping in
      t.stopping <- true;
      was)
  in
  if not already then begin
    Condition.broadcast t.state_cv;
    (* polite first: Quit drains each shard's control loop *)
    Array.iter (fun s -> ignore (rpc t s Ctl.Quit)) t.fleet;
    (* then force: SIGKILL and reap whatever is left (SIGSTOPped
       children included — SIGKILL overrides the stop) *)
    let deadline = now t +. 2. in
    Array.iter
      (fun s ->
        let pid = locked t (fun () -> s.spid) in
        if pid > 0 then begin
          let rec reap polite =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
                if now t >= deadline || not polite then begin
                  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
                  ()
                end
                else begin
                  Clock.sleep t.clock 0.02;
                  reap (now t < deadline)
                end
            | _ -> ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          in
          reap true;
          locked t (fun () ->
              s.spid <- -1;
              s.port <- -1;
              close_ctl s;
              if s.st <> Degraded then s.st <- Down)
        end)
      t.fleet;
    Condition.broadcast t.state_cv;
    Tcp.shutdown t.ctl_srv;
    List.iter Thread.join t.threads
  end

let start cfg =
  if cfg.shards < 1 then invalid_arg "Supervisor.start: shards must be >= 1";
  if cfg.crash_loop_max < 1 then invalid_arg "Supervisor.start: crash_loop_max >= 1";
  (* a write into a SIGKILLed shard's socket must surface as EPIPE ->
     Endpoint.Closed, not take the supervisor down with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir cfg.state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let master =
    Lw_store.create ~keep:(max cfg.master_keep 2) ~domain_bits:cfg.domain_bits
      ~bucket_size:cfg.bucket_size ()
  in
  let fleet =
    Array.init cfg.shards (fun sid ->
        {
          sid;
          st = Down;
          spid = -1;
          port = -1;
          sepoch = 0;
          sadvertised = 0;
          ctl = None;
          srestarts = 0;
          crash_times = [];
          down_since = None;
          rpc_mu = Mutex.create ();
        })
  in
  let t_ref = ref None in
  let ctl_srv =
    Tcp.serve ~recv_timeout_s:cfg.ctl_timeout_s ~host:cfg.host ~port:0 (fun ep ->
        match !t_ref with Some t -> ctl_handler t ep | None -> ())
  in
  let t =
    {
      cfg;
      master;
      fleet;
      ctl_srv;
      clock = Clock.real ();
      rng = Det_rng.of_string_seed "lw_cluster/backoff";
      rollout_mu = Mutex.create ();
      state_mu = Mutex.create ();
      state_cv = Condition.create ();
      activated = 0;
      stopping = false;
      threads = [];
    }
  in
  t_ref := Some t;
  Array.iter
    (fun s ->
      locked t (fun () ->
          s.spid <- spawn t s.sid;
          s.st <- Starting))
    fleet;
  t.threads <- [ Thread.create reaper t ];
  if cfg.health_period_s > 0. then t.threads <- Thread.create prober t :: t.threads;
  ignore
    (await ~deadline_s:cfg.start_deadline_s t (fun () ->
         Array.for_all (fun s -> s.st = Up || s.st = Degraded) t.fleet));
  t
