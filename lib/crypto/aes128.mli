(** AES-128 (FIPS-197), encryption direction only, and the DPF's
    AES-MMO tree steps.

    The DPF uses AES as a fixed-key hash (Matyas–Meyer–Oseas) to mirror
    the AES-NI construction in the paper's C++ prototype, so only the
    forward permutation is required. Everything runs in C
    ([aes_stubs.c]), compiled once per instruction set: ["aesni"] on
    x86-64 and ["bitsliced"], a portable constant-time fallback,
    everywhere (the only build on other CPUs, aarch64 among them, where
    it is untested). The CPU picks the build once at load; every build
    computes the same bytes, and none indexes a table or branches on
    key, seed or control-bit data. *)

type key
(** An expanded 128-bit key schedule. *)

val build : unit -> string
(** The build every call below runs: the first of {!builds}, picked
    once when the program loads, from CPUID alone. Public CPU metadata,
    never derived from a secret. *)

val builds : unit -> string list
(** Every build this CPU can run, preferred first, ending with
    ["bitsliced"]. The [_on ~build] variants below accept any of them,
    so tests and benchmarks can check and time each one; any other name
    raises [Invalid_argument]. *)

val expand_key : string -> key
(** [expand_key k] expands a 16-byte key. Raises [Invalid_argument]
    otherwise. *)

val encrypt_block : key -> string -> string
(** [encrypt_block k block] encrypts one 16-byte block. *)

val encrypt_blocks_on :
  build:string ->
  key ->
  src:Bytes.t ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  blocks:int ->
  unit
(** [encrypt_blocks_on ~build k ~src ~src_pos ~dst ~dst_pos ~blocks]
    encrypts [blocks] consecutive 16-byte blocks (ECB) on the named build
    from {!builds}. Raises [Invalid_argument] on an out-of-bounds
    range. *)

val mmo_fixed_key : key
(** The fixed key (the AES-128 expansion of the bytes of pi used by
    standard FSS implementations is not canonical; we fix the expansion of
    ["lightweb-mmo-key!"] truncated to 16 bytes) backing {!mmo_hash}. *)

val mmo_hash : key -> tweak:int -> string -> string
(** [mmo_hash k ~tweak s] is the Matyas–Meyer–Oseas compression
    [AES_k(s XOR t) XOR (s XOR t)] where [t] encodes [tweak land 0xff]
    in the first byte; [s] must be 16 bytes. Used as the DPF
    length-doubling PRG: [G(s) = mmo 1 s || mmo 2 s], and [mmo 3 s] for
    a terminal node's leaf bits. *)

val mmo_hash_into :
  key -> tweak:int -> src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> unit
(** Allocation-free {!mmo_hash} over 16-byte regions, which may
    overlap. *)

val mmo_blocks_on :
  build:string ->
  key ->
  tweak:int ->
  src:Bytes.t ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  blocks:int ->
  unit
(** {!mmo_hash_into} over [blocks] consecutive 16-byte blocks under one
    tweak, on the named build from {!builds}. The source and destination
    ranges must not overlap. *)

val mmo_level :
  key ->
  src:Bytes.t ->
  src_pos:int ->
  ts:Bytes.t ->
  ts_pos:int ->
  n:int ->
  cw:Bytes.t ->
  cw_pos:int ->
  cw_bits:int ->
  dst:Bytes.t ->
  t_out:Bytes.t ->
  unit
(** One level of a DPF tree in one call. For each of the [n] parent
    seeds at [src_pos + 16 i], with control bit [ts.[ts_pos + i]]
    (0 or 1):
    - its children [mmo 1 seed] and [mmo 2 seed] land at [dst] offsets
      [32 i] and [32 i + 16];
    - each child's control bit is taken from the low bit of its byte 15,
      which is then cleared;
    - under a mask splatted from the parent's control bit, the 16-byte
      correction word at [cw_pos] is XORed into both children, and bits
      0 and 1 of [cw_bits] into the left and right control bits;
    - the control bits land at [t_out] offsets [2 i] and [2 i + 1].

    The work and the memory touched depend on [n] alone. The output
    ranges must not overlap the input ranges (a chunk of parents is read
    before its children are written, but a later chunk would read what
    an earlier one wrote); overlap gives wrong bytes, never an access
    out of bounds. Raises [Invalid_argument] on an out-of-bounds
    range. *)

val mmo_level_on :
  build:string ->
  key ->
  src:Bytes.t ->
  src_pos:int ->
  ts:Bytes.t ->
  ts_pos:int ->
  n:int ->
  cw:Bytes.t ->
  cw_pos:int ->
  cw_bits:int ->
  dst:Bytes.t ->
  t_out:Bytes.t ->
  unit
(** {!mmo_level} on the named build from {!builds}. *)

val mmo_leaves :
  key ->
  src:Bytes.t ->
  src_pos:int ->
  ts:Bytes.t ->
  ts_pos:int ->
  n:int ->
  cw:string ->
  from:int ->
  count:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  unit
(** The leaf bits below [n] terminal nodes in one call. For each seed
    [i], [mmo 3 seed] XOR ([cw] under the mask of [ts.[ts_pos + i]]) is
    the node's 128 leaf bits (leaf [j] is bit [j land 7] of byte
    [j lsr 3]); bits [from .. from + count - 1] land as 0/1 bytes at
    [dst_pos + count * i]. [cw] is 16 bytes, [from + count <= 128], and
    [dst] must not overlap the inputs. Raises [Invalid_argument] on an
    out-of-bounds range. *)

val mmo_leaves_on :
  build:string ->
  key ->
  src:Bytes.t ->
  src_pos:int ->
  ts:Bytes.t ->
  ts_pos:int ->
  n:int ->
  cw:string ->
  from:int ->
  count:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  unit
(** {!mmo_leaves} on the named build from {!builds}. *)
