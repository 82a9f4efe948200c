(** Constant-time byte-string operations. *)

val equal : string -> string -> bool
(** [equal a b] compares without early exit; strings of different lengths
    compare unequal (length is not secret). *)

val mask_of_bit : int -> int
(** [mask_of_bit bit] is [0xff] when the low bit of [bit] is set, [0x00]
    otherwise, derived arithmetically — the building block for branch-free
    selection. *)

val select_int : int -> string -> string -> string
(** [select_int bit a b] is [a] when the low bit of [bit] is 1 else [b],
    reading both and branching on neither. Lengths must match. *)
