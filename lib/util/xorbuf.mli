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
    ~bucket ~dsts] is the scan kernel behind every PIR answer, single or
    batched: for each lane [q] and record [j < count], XOR the
    [bucket]-byte record at [src_pos + j*bucket] into [dsts.(q)] under
    the mask splatted from bit [q land 7] of
    [bits.[bits_pos + (q lsr 3) * stride + j]] — eight lanes packed per
    selection byte, one [stride]-byte plane per eight lanes. A single
    answer is the one-lane call with its 0/1 selection bytes as plane 0.
    After the range checks it runs the C kernel build {!scan_kernel},
    which makes one pass over the records, in tiles of eight walked in
    512-byte strips (tiles of four walked whole when [bucket <= 512]),
    masking each into every lane's accumulator 64 bytes at a time. Every
    record is loaded and every accumulator rewritten whatever the bits,
    and the kernel has no branch but its loop bounds, so its memory
    trace is a function of the geometry and the lane count alone.
    Raises [Invalid_argument] on an empty [dsts], a non-positive
    [bucket], a negative [count], [stride < count], or any
    out-of-bounds range. *)

val scan_kernel : unit -> string
(** The build of the C scan kernel every {!xor_buckets_lanes} call
    runs: the widest this CPU supports, picked once when the program
    loads, from CPUID alone — ["avx512"] or ["avx2"] on x86-64, else
    ["baseline"] (SSE2 on x86-64, NEON on aarch64). Every build is the
    same source; only the instructions its vectors lower to differ. *)

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

val is_zero : string -> bool
(** [is_zero s] is true iff every byte of [s] is ['\x00']. Scans 64-bit
    words with a byte tail. *)
