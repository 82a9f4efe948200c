(** Path ORAM with a recursive position map.

    The flat {!Path_oram} keeps one position word per block in enclave
    private memory — fine for benchmarks, but a real SGX enclave has tiny
    protected memory, so deployments store the position map itself in a
    smaller ORAM, recursively, until the top map fits ({!Path_oram} cites
    the same construction). Each level packs [pack] positions per block,
    shrinking the map by that factor per level.

    One logical access costs one path per level — still polylogarithmic,
    and the access trace of {e every} level is position-map lookups on
    uniformly random leaves, so obliviousness is preserved (tested). *)

type t

val create :
  ?pack:int ->
  ?top_threshold:int ->
  capacity:int ->
  block_size:int ->
  Lw_crypto.Drbg.t ->
  t
(** [pack] positions per map block (default 4); recursion stops when a map
    has at most [top_threshold] entries (default 64, kept in private
    memory). *)

val levels : t -> int
(** Number of ORAMs: 1 data ORAM + (levels-1) position-map ORAMs. *)

val write : t -> int -> string -> unit
val read : t -> int -> string option

val paths_per_access : t -> int
(** Total root-to-leaf paths touched per logical access (one per level). *)

val access_log : t -> int list
(** Concatenated leaf log across all levels, in access order. *)

val clear_access_log : t -> unit
val total_stash : t -> int
