(** The fleet supervisor: real shard processes, restart-with-backoff,
    coordinated live epoch rollout, fleet metrics.

    One supervisor owns:

    - a {e master store} ([Lw_store.t]) — the publisher-facing database
      of record; every shard is a replica of it;
    - [cfg.shards] shard {e processes}, spawned by re-execing this very
      executable ({!Worker}), each serving ZLTP on an ephemeral port and
      dialing back into the supervisor's control listener;
    - the control plane: liveness (a [waitpid] reaper + ZLTP [Health]
      probes against the data port), restart with capped jittered
      backoff, a crash-loop circuit breaker, epoch rollout, metric
      scraping, and chaos hooks for the tests.

    {b Rollout is two-phase.} {!publish} seals the next epoch on the
    master, pushes the [diff_ranges] delta to every [Up] shard
    ([Refresh] — sealed but {e not} announced), and only when every
    shard acked flips the advertisement everywhere ([Activate]). A
    failure in phase one simply never activates: every shard still
    advertises (and can still answer) the pinned old epoch, so a client
    can never assemble a mixed-epoch answer — the epoch-tagged wire
    protocol makes that structural rather than probabilistic. A failure
    in phase two re-activates the old epoch on any shard that already
    flipped. Either way {!publish} reports {!Rolled_back} and the fleet
    converges again on the next rollout or shard catch-up.

    {b Warm restart.} A restarted shard re-registers carrying the epoch
    from its persisted manifest; the supervisor catches it up with an
    incremental diff when that epoch is still live in the master's keep
    window of 8 epochs (a full push otherwise) and re-activates it at the
    fleet's advertised epoch. Mean time to recovery (process death →
    caught-up-and-activated) lands in the [lw_cluster.mttr_seconds]
    histogram. *)

type config = {
  shards : int;  (** shard processes (>= 1; >= 2 for a PIR client) *)
  domain_bits : int;
  bucket_size : int;
  state_dir : string;  (** manifests live here; created if missing *)
  host : string;
  self : string;  (** executable to re-exec as workers *)
  ctl_timeout_s : float;  (** control-RPC reply deadline *)
  health_period_s : float;  (** data-port Health probe cadence (> 0) *)
  health_timeout_s : float;  (** probe dial/reply deadline *)
  restart_backoff_s : float;  (** base restart delay (doubles per recent crash) *)
  restart_backoff_max_s : float;
  crash_loop_max : int;
      (** crashes within 10 s that trip the breaker: the shard is marked
          {!Degraded} and never restarted again *)
  sabotage : int -> Spec.sabotage;  (** per-shard fault injection (tests) *)
}

val default_config : state_dir:string -> unit -> config
(** 4 shards, [2^8] buckets of 1 KiB, [self = Sys.executable_name],
    loopback host, 5 s control timeout, 0.5 s health probes with 1 s
    deadline, 0.1 s base backoff capped at 1 s, breaker at 5 crashes in
    10 s, no sabotage. *)

type state =
  | Starting  (** spawned, not yet registered + caught up *)
  | Up
  | Stalled  (** process alive but failing Health probes (e.g. SIGSTOP) *)
  | Down  (** dead, restart pending *)
  | Degraded  (** crash-loop breaker tripped; permanently out *)

val state_name : state -> string

type shard_info = {
  id : int;
  state : state;
  pid : int option;
  zltp_port : int option;
  epoch : int;  (** last sealed epoch the supervisor knows of *)
  advertised : int;
  restarts : int;
}

type t

val start : config -> t
(** Spawn the fleet and wait (up to 15 s) for every shard to reach {!Up}
    or {!Degraded}. Raises [Invalid_argument] on a bad config; never
    raises on shard failure — that is what the states are for. *)

val info : t -> shard_info list
val fleet_epoch : t -> int  (** master store's sealed epoch *)

val activated_epoch : t -> int
(** The epoch the fleet currently advertises (trails {!fleet_epoch}
    after a rolled-back publish). *)

type rollout_result =
  | Rolled_out of { epoch : int; refreshed : int }
  | Rolled_back of { epoch : int; reason : string }
      (** [epoch] is the still-advertised old epoch *)

val publish : t -> (int * string) list -> rollout_result
(** Apply [(bucket, bytes)] mutations (empty bytes clears the bucket),
    seal the next master epoch, and run the two-phase rollout described
    above. Serialized with shard catch-up; never raises on shard
    failure. *)

val replicas : t -> Lightweb.Zltp_client.replica list list
(** Replica lists for [Zltp_client.connect_replicated]: shard [i] backs
    role [i mod 2], one of the two non-colluding PIR roles.
    Dials read the shard's current port at call time, so a replica
    re-dialed after a restart finds the new process. *)

val scrape : t -> Fleet_view.t
(** Scrape every reachable shard's metrics snapshot over the control
    channel and fold them, with this process's own, into a
    {!Fleet_view}. *)

(** {2 Chaos hooks} — aimed at shard [id]; no-ops when it has no pid. *)

val kill : t -> int -> unit  (** [SIGKILL] — the reaper restarts it *)

val sigstop : t -> int -> unit
(** Freeze the process: liveness probes start failing ({!Stalled}) but
    [waitpid] sees nothing — exactly the gray-failure case clients must
    fail over around. Returns once the signal is sent; the kernel stops
    the process asynchronously, and it may answer requests in between.
    {!await_states} [[Stalled]] waits until it is frozen for sure. *)

val sigcont : t -> int -> unit

val ctl_port : t -> int
(** The control port shards register on. A registration is taken only
    from the pid the shard last spawned, while it is alive: a late one
    from a process whose death was already handled is refused. *)

(** {2 Test synchronization} *)

val await_states : ?deadline_s:float -> t -> int -> state list -> bool
(** Wait for shard [id] to be in one of [states]. *)

val await_fleet : ?deadline_s:float -> t -> epoch:int -> bool
(** Wait until every non-[Degraded] shard is {!Up} with [advertised =
    epoch]. *)

val shutdown : t -> unit
(** Quit every shard (escalating to [SIGKILL]), reap them, stop the
    reaper/prober threads, close the control listener. Idempotent. *)
