(** A database of [2^domain_bits] fixed-size buckets in one contiguous
    buffer — the object the ZLTP server's per-request linear scan walks.

    Fixed bucket size is load-bearing for privacy: every response has the
    same length no matter which record was fetched. *)

type t

val create : domain_bits:int -> bucket_size:int -> t
(** All buckets start zeroed (= empty). [domain_bits] in [1..26] keeps the
    buffer under [2^26 * bucket_size] bytes; [bucket_size] must be
    positive. *)

val domain_bits : t -> int
val size : t -> int
(** Number of buckets, [2^domain_bits]. *)

val bucket_size : t -> int
val total_bytes : t -> int

val set : t -> int -> string -> unit
(** [set db i data] writes [data] into bucket [i]; [data] shorter than the
    bucket is zero-padded, longer raises [Invalid_argument]. *)

val get : t -> int -> string
(** [get db i] is the full [bucket_size] contents of bucket [i]. *)

val is_empty : t -> int -> bool
(** [is_empty db i] is true when bucket [i] is all zeros. *)

val clear : t -> int -> unit

val xor_bucket_into : t -> int -> dst:Bytes.t -> unit
(** [xor_bucket_into db i ~dst] XORs bucket [i] into [dst] (which must be
    at least [bucket_size] long) — the scan's inner step. *)

val xor_bucket_into_masked : t -> int -> mask:int -> dst:Bytes.t -> unit
(** Like [xor_bucket_into], but each source byte is ANDed with
    [mask land 0xff] first. With mask [0x00] the bucket is still read and
    [dst] rewritten unchanged, so a scan that visits every bucket with a
    mask derived from its selection bit has an access trace independent of
    the selection — the constant-trace scan step. *)

val xor_block_into_lanes :
  t ->
  base:int ->
  count:int ->
  bits:Bytes.t ->
  bits_pos:int ->
  stride:int ->
  dsts:Bytes.t array ->
  unit
(** [xor_block_into_lanes db ~base ~count ~bits ~bits_pos ~stride ~dsts]
    is the scan's block step ({!Lw_util.Xorbuf.xor_buckets_lanes}), for a
    single answer (one lane, [stride = count]) and a batch alike: the
    [count] buckets from [base] feed every accumulator of [dsts], lane
    [q] selecting bucket [base + j] by bit [q land 7] of
    [bits.[bits_pos + (q lsr 3) * stride + j]]. The kernel makes one
    pass whatever the width, and tracing records every bucket once, in
    order. *)

val set_tracing : t -> bool -> unit
(** Enable/disable access tracing; either way the trace is reset. Tracing
    is for the obliviousness checker — leave it off on hot paths. *)

val access_trace : t -> int list
(** Bucket indices touched by [get] / [xor_bucket_into]{[_masked]} since
    tracing was enabled, in access order. *)

val fill_random : t -> Lw_util.Det_rng.t -> unit
(** Fill every bucket with deterministic pseudorandom bytes; used by the
    benchmarks, which only care about scan geometry, not contents. *)

val occupied : t -> int
(** Number of non-empty buckets (linear scan; for tests and stats). *)
