(** Single-hash keyword store: each key owns the one bucket its hash picks
    (the paper's default; on collision the publisher renames, §5.1).

    Backed by the epoch-versioned engine ({!Lw_store}): mutations
    accumulate in a copy-on-write batch and become visible to PIR
    servers only when {!publish} seals them as the next epoch. The
    store's own read API ({!find}, collision checks) reads through the
    pending batch, so a publisher always sees its own writes. *)

type t

type insert_error =
  | Collision of string (** the existing key occupying the slot *)
  | Too_large

val create : ?hash_key:string -> domain_bits:int -> bucket_size:int -> unit -> t
(** [create ~domain_bits ~bucket_size ()] makes an empty store at epoch 0.
    The SipHash key defaults to a fixed test key; deployments pass a
    secret per-universe key. *)

val engine : t -> Lw_store.t
(** The underlying epoch engine — what versioned ZLTP servers serve. *)

val count : t -> int
(** Number of stored keys (including uncommitted inserts). *)

val insert : t -> key:string -> value:string -> (unit, insert_error) result
(** Rejects a key whose slot is taken by a {e different} key; re-inserting
    the same key overwrites. The write is buffered until {!publish}. *)

val remove : t -> string -> bool
(** [remove t key] clears the key's bucket if it holds that key (buffered
    until {!publish}). *)

val find : t -> string -> string option
(** Direct (non-private) lookup — publishers and tests use this; clients
    go through PIR. Sees uncommitted writes. *)

val publish : t -> Lw_store.Snapshot.t
(** Seal the pending mutation batch as the next epoch and return the
    resulting (unpinned) snapshot; if nothing is pending, returns the
    current snapshot without minting an epoch. *)
