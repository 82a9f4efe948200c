(** Cuckoo-hashed keyword store sealed per epoch: two candidate buckets
    per key with displacement on insert — the paper's suggested
    alternative to renaming ("using cuckoo hashing and probing several
    locations per request", §5.1). A client privately probes {e both}
    candidate buckets of a sealed snapshot, so a page costs two
    private-GETs here versus one for {!Store}, in exchange for near-zero
    publish failures at much higher load factors.

    Mutations buffer in a copy-on-write batch of the epoch-versioned
    engine ({!Lw_store}) and {!publish} seals the batch as the next
    epoch, so servers never observe a half-finished eviction chain and
    both probes are guaranteed to land on the same epoch.

    Every stored record sits in one of its two candidate buckets: an
    insert the cuckoo cannot place within [max_kicks] fails closed
    ([`Full]) and leaves the table unchanged, instead of parking the
    record where PIR clients cannot see it. *)

type t

val create :
  ?hash_key:string -> ?max_kicks:int -> domain_bits:int -> bucket_size:int -> unit -> t
(** Empty store at epoch 0. [hash_key] seeds the SipHash keymap the
    cuckoo's two bucket hashes derive from (salts 0 and 1) — clients
    recompute candidates from the same key via [Keymap.derive].
    [max_kicks] bounds the eviction chain (default 512). *)

val engine : t -> Lw_store.t
(** The epoch engine versioned ZLTP servers serve keyword queries from. *)

val insert : t -> key:string -> value:string -> (unit, [ `Too_large | `Full ]) result
(** Stores or overwrites [key]. [`Full] when no eviction chain of at
    most [max_kicks] moves places a new key; every bucket the failed
    chain wrote is then restored, so the table is unchanged. *)

val remove : t -> string -> bool

val find : t -> string -> string option
(** Direct (non-private) lookup through the pending batch — publishers
    and tests; clients go through PIR against a sealed epoch. *)

val candidates : t -> string -> int * int
(** The two buckets a client must probe for a key (may coincide). *)

val count : t -> int

val stash_size : t -> int
(** Always 0: no record lives outside its candidate buckets. Kept for
    the reports that print it. *)

val load_factor : t -> float

val publish : t -> Lw_store.Snapshot.t
(** Seal the pending batch as the next epoch and return its (unpinned)
    snapshot; with no pending batch, returns the current snapshot
    without minting an epoch. *)

val pending_mutations : t -> int
(** Bucket writes buffered since the last {!publish}, displacement
    moves and rollback writes included. *)
