(** Cuckoo-hashed keyword store: two candidate buckets per key with
    displacement on insert — the paper's suggested alternative to renaming
    ("using cuckoo hashing and probing several locations per request",
    §5.1). A client privately probes both candidate locations, so a page
    costs two private-GETs here versus one for {!Store}, in exchange for
    near-zero publish failures at much higher load factors.

    Every stored record sits in one of its two candidate buckets, so a
    client's two probes always find it. An insert whose eviction chain
    cannot place it within [max_kicks] fails closed and leaves the table
    unchanged; there is no stash a client could not see. *)

type t

val create :
  ?hash_key:string ->
  ?max_kicks:int ->
  ?on_change:(int -> unit) ->
  domain_bits:int ->
  bucket_size:int ->
  unit ->
  t
(** [max_kicks] bounds the eviction chain (default 512). [on_change i]
    fires after every mutation of bucket [i] (set or clear, including
    displacement writes and their rollback) — how {!Kw_store} tracks
    the dirty set it must copy into the next sealed epoch. *)

val db : t -> Bucket_db.t
val count : t -> int

val candidates : t -> string -> int * int
(** The two buckets a key may live in (distinct hash functions; may
    coincide by chance). *)

val insert : t -> key:string -> value:string -> (unit, [ `Too_large | `Full ]) result
(** Stores or overwrites [key]. [`Full] when no eviction chain of at most
    [max_kicks] moves places a new key; every bucket the failed chain
    wrote is then restored, so the table is unchanged. *)

val find : t -> string -> string option
val remove : t -> string -> bool
val load_factor : t -> float

val probes_per_query : int
(** 2: privacy requires clients to always probe both candidates. *)
