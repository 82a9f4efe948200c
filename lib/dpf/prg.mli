(** The length-doubling pseudorandom generator of the DPF tree.

    The PRG expands a 16-byte seed into two 16-byte child seeds plus two
    control bits (BGI16's G : {0,1}^λ → {0,1}^(2λ+2)) with two fixed-key
    AES calls in the Matyas–Meyer–Oseas mode, the AES-NI construction of
    the paper's C++ prototype. It runs in C on the CPU's AES instructions
    or the constant-time bitsliced build ({!Lw_crypto.Aes128}), and
    {!expand_level} and {!leaves} cover a whole tree level or block of
    terminal nodes per call.

    Control bits are taken from (and then cleared in) the low bit of each
    child's last byte. *)

val expand_into : src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> int
(** [expand_into ~src ~src_pos ~dst ~dst_pos] expands the 16-byte seed at
    [src_pos] into 32 bytes at [dst_pos] (left child then right child)
    and returns the control bits packed as [tl lor (tr lsl 1)]. The [src]
    and [dst] regions must not overlap. *)

val terminal_len : int
(** 16: the bytes one {!terminal_into} call yields. *)

val terminal_into : src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> unit
(** [terminal_into ~src ~src_pos ~dst ~dst_pos] maps the 16-byte seed at
    [src_pos] through one more AES-MMO call (under tweak 3) to
    [terminal_len] pseudorandom bytes at [dst_pos]: the 128 leaf bits
    below an early-terminated DPF tree node, before correction. All 128
    bits are PRG output, including the control-bit position the seed
    itself keeps clear. *)

val expand_level :
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
(** One DPF tree level below [n] nodes: {!expand_into} on each seed at
    [src_pos + 16 i] into [dst] at [32 i], then, under the mask of its
    control bit [ts.[ts_pos + i]], the correction word at [cw_pos] into
    both children and bits 0/1 of [cw_bits] into their control bits,
    which land as 0/1 bytes at [t_out] offsets [2 i] and [2 i + 1]. The
    same work whatever the control bits are, in one C call
    ({!Lw_crypto.Aes128.mmo_level}). *)

val leaves :
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
(** The leaf bits below [n] terminal nodes: {!terminal_into} on each
    seed, the 16-byte leaf correction [cw] under the mask of its control
    bit, and bits [from .. from + count - 1] of the result as 0/1 bytes
    at [dst_pos + count * i]. One C call
    ({!Lw_crypto.Aes128.mmo_leaves}). *)

val gen_tree :
  seeds:Bytes.t ->
  alpha:int ->
  domain_bits:int ->
  levels:int ->
  alpha_lo:int ->
  root0:Bytes.t ->
  root1:Bytes.t ->
  cw_seeds:Bytes.t ->
  cw_bits:Bytes.t ->
  leaf:Bytes.t ->
  unit
(** Both parties' key-generation tree in one C call
    ({!Lw_crypto.Aes128.mmo_gen}): the roots, the per-level correction
    words and bits, the terminal seeds left in [seeds], and the
    selection leaf correction word. *)

val convert : seed:Bytes.t -> pos:int -> len:int -> string
(** [convert ~seed ~pos ~len] expands the 16-byte seed at [pos] into a
    [len]-byte leaf value share (BGI16's Convert for value-carrying
    DPFs), as ChaCha20 keyed by the seed. *)
