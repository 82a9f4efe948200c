(** Per-shard warm-restart state.

    Every time a shard seals an epoch it persists two files into the
    cluster state directory, atomically (write-to-temp + rename):

    - [shard-<id>.manifest.json] — the {e small epoch manifest}: shard
      id, geometry, the sealed epoch and the epoch currently advertised
      to clients;
    - [shard-<id>.data] — the raw bucket bytes of that epoch.

    A restarted process (crash, [kill -9], host reboot) loads both,
    rebuilds its store {e at the manifest's epoch number}
    ([Lw_store.create ~initial_epoch] + one seal), and registers with
    the supervisor carrying that epoch — so catch-up is the incremental
    [diff_ranges] delta from the manifest epoch to the fleet's current
    epoch, not a full database push. A manifest whose geometry does not
    match the spec (operator reconfigured the fleet) is ignored and the
    shard rejoins cold. *)

type t = {
  shard_id : int;
  domain_bits : int;
  bucket_size : int;
  epoch : int;  (** sealed epoch the data file reflects *)
  advertised : int;  (** epoch announced to clients when the shard died *)
}

val save : dir:string -> t -> data:string -> unit
(** Persist manifest + bucket bytes atomically. [data] must be exactly
    [2^domain_bits * bucket_size] bytes. Raises [Sys_error] on I/O
    failure — the caller (shard control loop) reports it as a control
    error rather than dying. *)

val load : dir:string -> shard_id:int -> (t * string) option
(** Read back manifest + data; [None] when either file is missing,
    unparsable, or the data size contradicts the manifest (a torn write
    loses warm restart, never correctness). *)
