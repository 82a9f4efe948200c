(** A lightweb content universe (§3.1): the collection of pages a single
    CDN serves through one logical ZLTP deployment.

    A universe fixes the blob geometry — one size for all code blobs, one
    for all data blobs, and the number of data fetches per page view —
    and tracks which publisher owns each top-level domain. Code and data
    live in separate keyword stores served over separate ZLTP sessions
    (§3.2: "one for fetching the large code blobs and one for the small
    data blobs"). *)

type geometry = {
  code_blob_size : int;
  data_blob_size : int;
  fetches_per_page : int; (** fixed data-GET count per page view *)
  code_domain_bits : int;
  data_domain_bits : int;
}

val default_geometry : geometry
(** Test-scale defaults: 16 KiB code blobs, 1 KiB data blobs, 5 fetches,
    2^10 / 2^12 domains. *)

type t

val create : ?seed:string -> name:string -> geometry -> t
(** [seed] derives the universe's keyword-hash keys deterministically. *)

val name : t -> string
val geometry : t -> geometry
val seed : t -> string

val domains : t -> (string * string) list
(** All (domain, owner) registrations, sorted by domain. *)

val data_paths : t -> string list
(** Every stored data-blob path (post any collision renames), sorted. *)

(** {2 Domain ownership} *)

val claim_domain : t -> publisher:string -> domain:string -> (unit, string) result
(** First-come registration; re-claiming your own domain is a no-op. *)

val owner_of : t -> string -> string option

(** {2 Publishing} *)

val push_code : t -> publisher:string -> domain:string -> source:string -> (unit, string) result
(** Install the domain's (single, §3.2) code blob: [source] must parse as
    Lightscript, define [plan] and [render], and fit the code blob size. *)

val push_data :
  t -> publisher:string -> path:string -> value:Lw_json.Json.t -> (unit, string) result
(** Store a data blob at [path] (full path including domain). Fails on
    ownership mismatch, size overflow, or an index collision with a
    different key (the publisher must then rename, §5.1), or when the
    keyword index finds no place for a new path; a failed push leaves
    both indexes as they were. *)

val remove_data : t -> publisher:string -> path:string -> (bool, string) result
(** Removes the page from both the data store and the keyword index. *)

val publish_updates : t -> int * int
(** Seal every pending code/data/keyword mutation as new storage epochs —
    the atomic point at which pushed updates become visible to PIR
    servers — and return the now-current [(code_epoch, data_epoch)] (see
    {!keyword_epoch} for the keyword store's). A no-op pair of current
    epochs when nothing is pending. Queries pinned to earlier epochs keep
    being answered from those epochs' snapshots. *)

val keyword_epoch : t -> int
(** The keyword store's current sealed epoch. *)

val keyword_store : t -> Lw_pir.Kw_store.t
(** The cuckoo-backed keyword index itself (tests, load accounting). *)

val page_count : t -> int

(** {2 Direct (publisher-side) reads} *)

val code_source : t -> string -> string option
val data_value : t -> string -> string option

(** {2 Serving} *)

val code_servers : t -> Zltp_server.t * Zltp_server.t
(** The two non-colluding logical PIR servers for the code store. In this
    in-process simulation both wrap the same underlying database, which is
    faithful: the deployments replicate identical data. *)

val data_servers : t -> Zltp_server.t * Zltp_server.t

val keyword_servers : t -> Zltp_server.t * Zltp_server.t
(** The two logical PIR servers for the cuckoo keyword index: every page
    pushed to the universe is retrievable by path through the wire-v4
    [Keyword_query] verb, byte-identical to the data store's path GET.
    Pending keyword mutations are sealed first, like every server
    constructor. *)

val sharded_data_servers : t -> shard_bits:int -> Zltp_server.t * Zltp_server.t
(** The same two logical data servers, each deployed as a front-end over
    [2^shard_bits] data shards (§5.2) — answers are byte-identical to the
    unsharded deployment; each shard scans a zero-copy view of its slice. *)

val enclave_data_server : t -> Zltp_server.t
(** Build an enclave-mode server over a copy of the data store (E8 and the
    mode-negotiation tests). *)

val single_data_server : t -> Zltp_server.t
(** The third deployment model: ONE single-server-PIR data server over
    the same sealed epoch engine the two-server pair scans. Marks the
    universe as single-serving, so every subsequent {!publish_updates}
    warms (seals) the new epoch's SPIR hint alongside the epoch itself —
    clients only ever download hints, never wait on their computation. *)

val stats : t -> (string * int) list
(** Human-readable counters for the CLI. *)
