(** Length-doubling pseudorandom generators for the DPF tree.

    A PRG expands a 16-byte seed into two 16-byte child seeds plus two
    control bits (BGI16's G : {0,1}^λ → {0,1}^(2λ+2)). Two constructions
    are provided:

    - {!Aes_mmo}: two fixed-key AES calls in the Matyas–Meyer–Oseas mode,
      matching the AES-NI construction used by the paper's C++ prototype.
    - {!Chacha} [r]: one r-round ChaCha block; one call yields both
      children, which is faster in pure OCaml.

    Control bits are taken from (and then cleared in) the low bit of each
    child's last byte. *)

type t = Aes_mmo | Chacha of int

val default : t
(** [Aes_mmo], mirroring the paper's prototype. *)

val name : t -> string

val of_tag : int -> t option
val to_tag : t -> int
(** Stable one-byte identifiers for serialised DPF keys. *)

val expand_into :
  t -> src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> int
(** [expand_into prg ~src ~src_pos ~dst ~dst_pos] expands the 16-byte seed
    at [src_pos] into 32 bytes at [dst_pos] (left child then right child)
    and returns the control bits packed as [tl lor (tr lsl 1)]. The [src]
    and [dst] regions must not overlap. *)

val terminal_len : int
(** 16: the bytes one {!terminal_into} call yields. *)

val terminal_into : t -> src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> unit
(** [terminal_into prg ~src ~src_pos ~dst ~dst_pos] maps the 16-byte seed
    at [src_pos] through one more PRG call (AES-MMO under tweak 3, or a
    ChaCha block under its own nonce) to [terminal_len] pseudorandom
    bytes at [dst_pos]: the 128 leaf bits below an early-terminated DPF
    tree node, before correction. All 128 bits are PRG output, including
    the control-bit position the seed itself keeps clear. *)

val convert : t -> seed:Bytes.t -> pos:int -> len:int -> string
(** [convert prg ~seed ~pos ~len] expands the 16-byte seed at [pos] into a
    [len]-byte leaf value share (BGI16's Convert for value-carrying
    DPFs). *)
