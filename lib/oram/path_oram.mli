(** Path ORAM (Stefanov et al., CCS'13) — the oblivious-RAM scheme behind
    ZLTP's hardware-enclave mode of operation (§2.2).

    The enclave keeps the position map and stash in private memory and
    stores the bucket tree in untrusted memory. Every logical access reads
    and rewrites one uniformly random root-to-leaf path, so the untrusted
    memory's view — the sequence of paths — is independent of which blocks
    the clients asked for. The {!access_log} records exactly that view,
    and the obliviousness tests assert its input-independence.

    The position map is pluggable: the default is a private array, and
    {!Recursive_oram} supplies one backed by a smaller ORAM, giving the
    textbook recursive construction for enclaves with little private
    memory. *)

type t

type position_map = { get_and_set : int -> int -> int }
(** [get_and_set block_id new_leaf] returns the block's previous leaf (or
    [-1] if it never had one) and installs [new_leaf] — one combined
    operation so a recursive map pays exactly one access per lookup. *)

val array_position_map : int -> position_map
(** The default in-enclave array of [n] positions. *)

val create :
  ?bucket_capacity:int -> capacity:int -> block_size:int -> Lw_crypto.Drbg.t -> t
(** [create ~capacity ~block_size rng] holds up to [capacity] logical
    blocks of [block_size] bytes. [bucket_capacity] is Z (default 4).
    The tree has [2^ceil(log2 (max capacity 2))] leaves. *)

val create_with_position_map :
  ?bucket_capacity:int ->
  capacity:int ->
  block_size:int ->
  position_map ->
  Lw_crypto.Drbg.t ->
  t

val capacity : t -> int
val block_size : t -> int
val tree_height : t -> int
(** Levels from root (0) to leaf. *)

val bucket_count : t -> int

val write : t -> int -> string -> unit
(** [write t id data] stores [data] (at most [block_size] bytes,
    zero-padded) as logical block [id in \[0, capacity)]. One oblivious
    access. *)

val read : t -> int -> string option
(** [read t id] is the block's contents, or [None] if never written. One
    oblivious access either way. *)

val update : t -> int -> (string option -> string) -> unit
(** [update t id f] reads, transforms and rewrites block [id] in a single
    oblivious access ([f] sees [None] when the block was never written).
    The recursive position map is built on this. *)

val stash_size : t -> int
(** Blocks currently overflowing into the private stash; stays small with
    overwhelming probability (Z = 4). *)

val access_log : t -> int list
(** The untrusted memory's view: the leaf index of every path touched, in
    order. This is the {e complete} trace — bucket reads/writes are a fixed
    function of each leaf. *)

val clear_access_log : t -> unit
