(** The shard-process launch spec: everything a worker process needs to
    become shard [shard_id], serialized as JSON into its argv by the
    supervisor (see {!Worker}). *)

type sabotage = {
  die_after_register : bool;
      (** crash (exit 70) right after registering — drives the
          crash-loop circuit breaker deterministically in tests *)
  die_on_refresh : int option;
      (** [Some n]: crash upon receiving the [n]-th [Refresh] (1-based),
          {e before} applying it — a publisher push that dies mid-rollout *)
}

val no_sabotage : sabotage

type t = {
  shard_id : int;
  ctl_host : string;
  ctl_port : int;  (** supervisor's control-plane listener *)
  domain_bits : int;
  bucket_size : int;
  state_dir : string;  (** where the warm-restart manifest lives *)
  sabotage : sabotage;
}

val encode : t -> string
val decode : string -> (t, string) result
