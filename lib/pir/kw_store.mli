(** Cuckoo-backed keyword store sealed per epoch: the publisher mutates a
    live {!Cuckoo} table (two candidate buckets per key, displacement on
    insert), and {!publish} copies the dirtied buckets into the
    epoch-versioned engine ({!Lw_store}) as the next sealed epoch. A
    keyword client privately probes {e both} candidate buckets of a sealed
    snapshot, so servers never observe a half-finished eviction chain and
    both probes are guaranteed to land on the same epoch.

    Every stored record sits in one of its two candidate buckets: an
    insert the cuckoo cannot place fails closed ([`Full]) instead of
    parking the record where PIR clients cannot see it. *)

type t

val create :
  ?hash_key:string -> ?max_kicks:int -> domain_bits:int -> bucket_size:int -> unit -> t
(** Empty store at epoch 0. [hash_key] seeds the SipHash keymap the
    cuckoo's two bucket hashes derive from (salts 0 and 1) — clients
    recompute candidates from the same key via [Keymap.derive]. *)

val engine : t -> Lw_store.t
(** The epoch engine versioned ZLTP servers serve keyword queries from. *)

val table : t -> Cuckoo.t
(** The live publisher-side table (uncommitted mutations included). *)

val insert : t -> key:string -> value:string -> (unit, [ `Too_large | `Full ]) result
(** See {!Cuckoo.insert}: a [`Full] insert leaves the table unchanged. *)

val remove : t -> string -> bool

val find : t -> string -> string option
(** Direct (non-private) lookup through the live table — publishers and
    tests; clients go through PIR against a sealed epoch. *)

val candidates : t -> string -> int * int
(** The two buckets a client must probe for a key (may coincide). *)

val count : t -> int

val stash_size : t -> int
(** Always 0: no record lives outside its candidate buckets. Kept for
    the reports that print it. *)

val load_factor : t -> float
val bucket_size : t -> int

val publish : t -> Lw_store.Snapshot.t
(** Seal every bucket dirtied since the last publish as the next epoch
    and return its (unpinned) snapshot; if nothing is dirty, returns the
    current snapshot without minting an epoch. *)

val snapshot : t -> Lw_store.Snapshot.t
(** Alias of {!publish}. *)

val pending_mutations : t -> int
(** Distinct buckets dirtied since the last {!publish}. *)
