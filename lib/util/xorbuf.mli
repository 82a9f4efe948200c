(** Fast XOR over byte buffers.

    The PIR data scan is dominated by XOR-accumulating fixed-size buckets
    into a response buffer, so these loops work 64 bits at a time. All
    functions validate their ranges once up front and then run unchecked
    word loops; [xor_into_masked] deliberately keeps the checked accessors
    of the seed implementation — it is the reference kernel the scan
    kernel {!xor_buckets_lanes} is benchmarked (E19) and property-tested
    against. *)

val xor_into : src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
(** [xor_into ~src ~src_pos ~dst ~dst_pos ~len] XORs [len] bytes of [src]
    (from [src_pos]) into [dst] (at [dst_pos]). Bounds are checked once up
    front; raises [Invalid_argument] when a range is out of bounds
    (including [pos + len] overflowing the integer range). *)

val xor_into_masked :
  mask:int -> src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
(** Like {!xor_into}, but each source byte is ANDed with [mask land 0xff]
    first. Mask [0x00] still performs the full read-modify-write of [dst],
    so selecting buckets by mask (instead of skipping them with a branch)
    keeps a scan's memory trace independent of the selection bits. *)

val xor_buckets_lanes :
  bits:Bytes.t ->
  bits_pos:int ->
  stride:int ->
  count:int ->
  src:Bytes.t ->
  src_pos:int ->
  bucket:int ->
  dsts:Bytes.t array ->
  unit
(** [xor_buckets_lanes ~bits ~bits_pos ~stride ~count ~src ~src_pos
    ~bucket ~dsts] is the scan kernel over whole records: for each lane
    [q] and record [j < count], XOR the [bucket]-byte record at
    [src_pos + j*bucket] into [dsts.(q)] under the mask splatted from
    bit [q land 7] of [bits.[bits_pos + (q lsr 3) * stride + j]] —
    eight lanes packed per selection byte, one [stride]-byte plane per
    eight lanes. A single answer is the one-lane call with its 0/1
    selection bytes as plane 0. It is {!xor_extents_lanes} with every
    record's extent at [bucket].

    After the range checks it runs the C kernel build {!scan_kernel},
    which makes one pass over the records in tiles of the build's depth
    (eight records on AVX-512): each 64-byte column of a tile is loaded
    once into registers, and every lane of a group of up to eight masks
    its XOR out of them, one accumulator read-modify-write per column;
    wider batches take each tile once per group of eight lanes. Every
    record is loaded and every accumulator rewritten whatever the bits,
    and the kernel has no branch but its loop bounds, so its memory
    trace is a function of the geometry and the lane count alone.
    Raises [Invalid_argument] on an empty [dsts], a non-positive
    [bucket], a negative [count], [stride < count], or any
    out-of-bounds range. *)

val xor_extents_lanes :
  extents:Bytes.t ->
  extents_pos:int ->
  bits:Bytes.t ->
  bits_pos:int ->
  stride:int ->
  count:int ->
  src:Bytes.t ->
  src_pos:int ->
  bucket:int ->
  dsts:Bytes.t array ->
  unit
(** {!xor_buckets_lanes}, reading record [j] only up to its extent: the
    native-endian unsigned 32-bit entry at [extents_pos + 4*j] of
    [extents], capped at [bucket] in the kernel. Every byte of a record
    at or past its extent must be zero: the kernel skips those bytes,
    and with that promise the answer is {!xor_buckets_lanes}'s. It is
    the PIR answer path's kernel ([Lw_store.Snapshot.xor_block_into_lanes]),
    where a record's extent is the offset past its last non-zero byte
    rounded up to 64 B.

    When every extent of the call is one value, the records go in
    {!xor_buckets_lanes}'s stride walk, and no extent is read per tile,
    so a run of whole records is exactly that walk. Otherwise the call
    visits its records in {!extent_order}: a stable order by extent,
    longest first, without the empty ones, a function of the public
    extent map alone. The sorted records go in tiles of the build's
    depth, each row addressed by its own index, and a tile goes through
    the registers up to the least of its rows' extents, rounded down to
    whole columns below the bucket; each row's columns past that go one
    record at a time under the same masks. A row's selection bits are gathered
    by its public index and become masks only through arithmetic. Every
    record is still read exactly up to its extent, so the bytes read,
    and with them the memory trace and the time, are a function of the
    geometry, the lane count and the extents. The extents are public:
    they describe the database, which each server holds in the clear,
    and never a query. Raises as {!xor_buckets_lanes} does, and on an
    [extents] range out of bounds. *)

val scan_kernel : unit -> string
(** The build of the C scan kernel every {!xor_buckets_lanes} and
    {!xor_extents_lanes} call runs: the widest this CPU supports, picked
    once when the program loads, from CPUID alone — ["avx512"] or
    ["avx2"] on x86-64, else ["baseline"] (SSE2 on x86-64, NEON on
    aarch64). Every build is the same source; only the instructions its
    vectors lower to differ. *)

val scan_kernels : unit -> string list
(** Every build this CPU can run, widest first: [scan_kernel ()] then
    the narrower ones, ending with ["baseline"]. *)

val xor_buckets_lanes_on :
  kernel:string ->
  bits:Bytes.t ->
  bits_pos:int ->
  stride:int ->
  count:int ->
  src:Bytes.t ->
  src_pos:int ->
  bucket:int ->
  dsts:Bytes.t array ->
  unit
(** {!xor_buckets_lanes} on the named build from {!scan_kernels}, so
    tests and benchmarks can check and time every build the host runs.
    Raises [Invalid_argument] on a build this CPU cannot run, and as
    {!xor_buckets_lanes} does. *)

val xor_extents_lanes_on :
  kernel:string ->
  extents:Bytes.t ->
  extents_pos:int ->
  bits:Bytes.t ->
  bits_pos:int ->
  stride:int ->
  count:int ->
  src:Bytes.t ->
  src_pos:int ->
  bucket:int ->
  dsts:Bytes.t array ->
  unit
(** {!xor_extents_lanes} on the named build, as {!xor_buckets_lanes_on}. *)

val extent_order : extents:Bytes.t -> extents_pos:int -> count:int -> bucket:int -> int array
(** [extent_order ~extents ~extents_pos ~count ~bucket] is the order in
    which {!xor_extents_lanes} visits [count] records whose extents
    differ, computed by the C function that kernel calls: the indices,
    from 0, of the records whose extent (as {!xor_extents_lanes} reads
    it, capped at [bucket]) is not 0. The records are sorted in chunks
    of 512, in order; within a chunk they are sorted longest first by
    their extents' whole 64-byte columns, an extent at [bucket] above
    every other, and stably, so equal keys keep index order. When a
    bucket has more than 125 whole columns (8,000 B), the columns count
    in bins of [2^s], the least [s] that leaves at most 125. It reads the
    extents alone; no selection bit goes in. Raises [Invalid_argument]
    on a non-positive [bucket], a negative [count], or an [extents]
    range out of bounds. *)

val set_lane_bits :
  src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> lane:int -> unit
(** [set_lane_bits ~src ~src_pos ~dst ~dst_pos ~len ~lane] ORs the low
    bit of each of [len] source bytes into bit [lane] (0–7) of the
    matching [dst] byte: it packs one lane's 0/1 selection bytes into
    the layout {!xor_buckets_lanes} reads. Raises [Invalid_argument] on
    a lane outside 0–7 or an out-of-bounds range. *)

val xor_string_into : src:string -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
(** Same as {!xor_into} with an immutable source. *)

val xor : string -> string -> string
(** [xor a b] is the bytewise XOR of two equal-length strings. Raises
    [Invalid_argument] if lengths differ. *)

val is_zero_range : Bytes.t -> pos:int -> len:int -> bool
(** [is_zero_range b ~pos ~len] is true iff bytes [pos..pos+len) of [b]
    are all ['\x00']. Scans 64-bit words with a byte tail. *)

val nonzero_end : Bytes.t -> pos:int -> len:int -> int
(** [nonzero_end b ~pos ~len] is the offset, from [pos], just past the
    last non-['\x00'] byte of [b]'s bytes [pos..pos+len), or 0 when they
    are all zero. Scans 64-bit words backwards from the end. *)

val is_zero : string -> bool
(** [is_zero s] is true iff every byte of [s] is ['\x00']. Scans 64-bit
    words with a byte tail. *)
