(** Distributed DPF evaluation (§5.2 of the paper).

    A front-end server receives the client's DPF key for the full domain,
    expands only the top of the GGM tree, and hands each data shard the
    sub-tree root falling in its index range. Completing the evaluation at
    a shard then costs exactly as much as evaluating a DPF over the
    smaller per-shard domain — the property the paper's scale-up estimate
    relies on. *)

val split : Dpf.key -> shard_bits:int -> Dpf.key array
(** [split k ~shard_bits] derives [2^shard_bits] sub-keys, one per shard;
    sub-key [i] covers global indices [[i·2^r, (i+1)·2^r)] where
    [r = domain_bits k - shard_bits]. Requires
    [0 < shard_bits < domain_bits k]. *)
