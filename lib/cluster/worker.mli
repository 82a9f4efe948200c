(** Worker self-exec: how the supervisor turns {e this} executable into
    shard processes.

    There is no separate shard binary. The supervisor re-execs its own
    executable with a marker argv ([Sys.argv.(1) = marker]) and a JSON
    {!Spec.t}; any binary that links [lw_cluster] must call
    {!run_if_worker} as the very first thing in [main]. When the marker
    is present the call never returns — it runs the shard process
    ({!Shard_proc.main}) and exits; otherwise it is a no-op and the
    binary proceeds as the supervisor / CLI it normally is. *)

val argv_for : self:string -> Spec.t -> string array
(** The argv the supervisor passes to [Unix.create_process] to launch
    the spec as a child of executable [self]. *)

val run_if_worker : unit -> unit
(** Must be the first call in the [main] of every binary linking this
    library. No-op unless {!marker} is present; otherwise runs the shard
    and exits (never returns). A malformed spec exits 64. *)
