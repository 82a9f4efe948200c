(** Epoch-versioned storage engine: immutable snapshots + copy-on-write
    writers over the PIR bucket array.

    Two-server PIR reconstruction is XOR over two servers' shares, so it
    is only correct when both servers scanned {e bit-identical}
    databases. Publishers, however, push updates continuously. This
    engine makes the two compatible by construction:

    - readers {!pin} an immutable {!Snapshot.t} of some epoch [e] and
      scan it for as long as they like — a snapshot's bytes never change;
    - a {!Writer.t} batches publisher mutations copy-on-write against the
      current epoch and publishes them atomically as epoch [e+1] via
      {!Writer.seal}.

    Storage is an array of fixed-size copy-on-write blocks (power-of-two
    runs of buckets within a 256 KiB budget by default). Sealing shares
    every untouched block with the previous epoch, so a 1%-churn epoch
    costs ~1% of a full database copy — the property bench E22
    measures. The CoW block is the unit of copying, not of scanning:
    {!Snapshot.xor_block_into_lanes} scans a run of any length in one
    kernel call, across every block it spans.

    Every bucket has an {e extent}: the offset just past its last
    non-zero byte, rounded up to 64 B and capped at [bucket_size]; an
    empty bucket's extent is 0. In a store of buckets under
    {!whole_scan_below} bytes every extent is the whole bucket, empty or
    not. {!Writer.set} and {!Writer.clear}
    compute it from the bytes they write and {!Writer.fill_random} sets
    every extent to the whole bucket. A block keeps its buckets'
    extents next to its bytes, so seals and range views share them as
    they share blocks. The scan reads each bucket only up to its extent,
    since the zero tail past it XORs nothing into an answer. The extent
    map is public: each server holds the database in the clear, and the
    map is a function of the published contents, never of a query. A
    scan's memory trace and its time therefore follow the epoch's
    extent map, which is the same for every query on that epoch.

    Epoch lifetime is refcounted: an epoch is retired once no reader
    pins it {e and} it has aged out of the [keep] most recent epochs.
    The keep window (default 2: current + previous) is what lets a
    client that pinned an epoch for a multi-fetch page visit still be
    answered while the publisher seals the next epoch underneath it. *)

type t
(** The engine: a totally-ordered sequence of epochs over one logical
    bucket database. Publishing ([Writer.seal]) and pin bookkeeping are
    mutex-protected; reads of snapshot bytes are lock-free. *)

type store = t

type snapshot
type writer

val create :
  ?hash_key:string ->
  ?keep:int ->
  ?block_bytes:int ->
  ?initial_epoch:int ->
  domain_bits:int ->
  bucket_size:int ->
  unit ->
  t
(** Epoch 0 is the empty (all-zero) database. [hash_key] is the 16-byte
    SipHash keyword key ({!index_of_key}); [keep] (default 2, min 1) is
    how many most-recent epochs survive without pins; [block_bytes]
    (default [2^18]) bounds the CoW block size, which sets what a write
    copies and nothing about how a scan walks the blocks.

    [initial_epoch] (default 0, must be [>= 0]) numbers the initial
    empty epoch: a restarted fleet member that persisted a manifest at
    epoch [e] rebuilds as [create ~initial_epoch:(e - 1)] plus one seal,
    so its epoch counter rejoins the cluster's instead of restarting
    from zero. *)

val whole_scan_below : int
(** 512: buckets smaller than this are scanned whole. There the scan's
    loop over one record's few columns, whose count changes from record
    to record, costs more than the zero tail it would skip. *)

val domain_bits : t -> int
val size : t -> int
val bucket_size : t -> int
val total_bytes : t -> int
val hash_key : t -> string

val index_of_key : t -> string -> int
(** Keyword-to-bucket placement, identical to [Lw_pir.Keymap] with the
    same [hash_key] — the snapshot carries its keymap with it. *)

val block_buckets : t -> int
(** Buckets per CoW block (a power of two that tiles the domain). *)

val block_bytes : t -> int

(** {2 Epoch lifecycle} *)

val current : t -> snapshot
(** Latest published snapshot, without taking a pin: safe to read (its
    bytes are immutable) but it may be retired under you once newer
    epochs publish — use {!pin_latest} for anything longer-lived than a
    single borrow. *)

val current_epoch : t -> int

val oldest_epoch : t -> int
(** Oldest still-live (pinned or kept) epoch. *)

val live_epochs : t -> int list
(** Live epochs, oldest first. *)

val pin_latest : t -> snapshot
(** Pin and return the current epoch. Pair with {!unpin}. *)

type pin_error =
  | Retired  (** the epoch aged out of the keep window with no pins *)
  | Ahead  (** the epoch has not been published here yet *)

val pin : t -> epoch:int -> (snapshot, pin_error) result
(** Pin a specific epoch — how a server answers "the queried epoch":
    [Error Retired] / [Error Ahead] map onto the wire's structured
    [err_epoch_retired] / [err_epoch_ahead]. *)

val unpin : t -> snapshot -> unit
(** Release one pin. Dropping the last pin of an epoch outside the keep
    window retires it. Unpinning an already-retired snapshot is a no-op.
    Raises [Invalid_argument] on a range view ({!Snapshot.sub}): pins
    belong to whole snapshots. *)

val writer : t -> writer
(** Open a copy-on-write mutation batch against the current epoch. *)

(** {2 Snapshots} *)

module Snapshot : sig
  type t = snapshot
  (** A frozen database at one epoch: bucket bytes + keyword placement.
      All accessors are lock-free and safe from any domain. A snapshot is
      either whole (what {!pin}, {!current} and {!Writer.seal} return) or
      a range view of one ({!sub}); accessors index a view from 0. *)

  val epoch : t -> int

  val sub : t -> base:int -> domain_bits:int -> t
  (** [sub s ~base ~domain_bits] is the zero-copy view of the
      [2^domain_bits] buckets of [s] from [base]: it shares [s]'s blocks,
      which may mean sitting inside one CoW block or spanning several,
      and its bucket [i] is [s]'s bucket [base + i]. A sharded front-end
      serves each shard from one such view of a single pinned snapshot.
      The view lives as long as the caller holds it; it takes no pin.
      Raises [Invalid_argument] unless the range lies inside [s]. A view
      of the whole of [s] is [s]. *)

  val domain_bits : t -> int
  val size : t -> int
  val bucket_size : t -> int
  val total_bytes : t -> int
  val hash_key : t -> string

  val get : t -> int -> string
  (** Bucket [i]'s bytes (zero-padded to [bucket_size]). Recorded in the
      access trace when tracing is on. Raises [Invalid_argument] outside
      [0, size). *)

  val occupied : t -> int

  val extent : t -> int -> int
  (** Bucket [i]'s extent: the bytes a scan reads of it. Every byte of
      the bucket at or past it is zero. Raises [Invalid_argument]
      outside [0, size). *)

  val scan_bytes : t -> int
  (** The sum of the snapshot's (or view's) extents: the bytes one pass
      of {!xor_block_into_lanes} over it reads. [total_bytes] for a
      store written by {!Writer.fill_random}. *)

  (** Scan kernels: every bucket is traced once per scan, in order, so
      the obliviousness checker sees the full in-order walk of the
      snapshot, or of the view's own range. *)

  val xor_bucket_into_masked : t -> int -> mask:int -> dst:Bytes.t -> unit
  (** XOR bucket [i], each byte ANDed with [mask land 0xff], into the
      first [bucket_size] bytes of [dst]. With mask [0x00] the bucket is
      still read, so a scan that derives the mask from its selection bit
      leaves a trace independent of the selection. *)

  val xor_block_into_lanes :
    t ->
    base:int ->
    count:int ->
    bits:Bytes.t ->
    bits_pos:int ->
    stride:int ->
    dsts:Bytes.t array ->
    unit
  (** Scan block entry for single answers (one lane) and batches alike:
      one {!Lw_util.Xorbuf.xor_extents_lanes} call over the run's
      buckets, each read up to its extent. The run may start anywhere
      and span any number of CoW blocks; the kernel addresses each
      bucket as its block plus its offset, so its tiles cross block
      edges and its sort takes the run's records as they come, whatever
      the blocks. Each bucket is traced once, with its extent as the
      bytes read. *)

  (** {2 Tracing}

      The obliviousness checker's hook ([Lw_analysis.Trace_check]). *)

  val traced : t -> (unit -> 'a) -> 'a * (int * int) list
  (** [traced s f] runs [f] and returns its result with every bucket any
      snapshot or view of [s]'s store read meanwhile, in access order, as
      [(global index, bytes read)]: a scan reads a bucket's extent,
      {!get} and {!xor_bucket_into_masked} the whole bucket. Tracing is
      on only while [f] runs, and goes off however [f] exits; off, a scan
      pays one flag test per call. Not reentrant, and not for
      concurrent readers of the same store. *)

  val diff_ranges : t -> t -> (int * int) list
  (** [diff_ranges a b] is the [(base, count)] bucket ranges (ascending,
      coalesced) where the two epochs' block pointers differ — the exact
      set of buckets an incremental consumer (a cluster replica push)
      must re-copy. Physical comparison, so it is correct across any
      number of intervening epochs. Raises [Invalid_argument] if the
      snapshots belong to different stores or either is a range view. *)
end

(** {2 Writers} *)

module Writer : sig
  type t = writer
  (** A copy-on-write mutation batch against one base epoch. Writers are
      single-owner and not thread-safe; when several race, the first to
      seal wins and the others' [seal] raises. *)

  val set : t -> int -> string -> unit
  (** Write bucket [i] (zero-padding to [bucket_size]) and set its
      extent from [data]'s last non-zero byte; the first write into a
      CoW block pays that block's copy, later writes to the same block
      are free. Raises once the writer is sealed. *)

  val clear : t -> int -> unit
  (** Zero bucket [i]; its extent becomes 0. *)

  val fill_random : t -> Lw_util.Det_rng.t -> unit
  (** Overwrite every bucket with deterministic pseudorandom bytes, for
      benchmarks and tests that care about scan geometry, not contents.
      Every extent becomes the whole bucket. *)

  val get : t -> int -> string
  (** Read-your-writes view of the batch (uncommitted). *)

  val mutations : t -> int
  val dirty_blocks : t -> int

  val cow_bytes : t -> int
  (** Bucket bytes copied so far — the real cost of this epoch vs. the
      naive full-database rewrite ([total_bytes]). A copied block's
      extents (4 B per bucket) are not counted. *)

  val seal : ?epoch:int -> t -> snapshot
  (** Atomically publish the batch as the next epoch and return its
      snapshot (unpinned). Raises [Invalid_argument] if another writer
      sealed since this one was opened (stale writer), or on double
      seal.

      [?epoch] publishes under an explicit epoch number (must exceed the
      base epoch) instead of [base + 1] — how a cluster shard that was
      offline for several epochs applies one combined catch-up diff and
      lands exactly on the fleet's current epoch. Epoch numbers in one
      store may therefore have gaps; pins and [diff_ranges] are
      unaffected (both work on live snapshots, not arithmetic). *)
end
