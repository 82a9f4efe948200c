(** Small integer and bit-manipulation helpers shared across the tree
    algorithms (DPF, ORAM) and the cost model. *)

val rotl64 : int64 -> int -> int64
(** [rotl64 x k] rotates the 64-bit value [x] left by [k] (0 <= k < 64). *)

val log2_ceil : int -> int
(** [log2_ceil n] is the least [d] with [2^d >= n]. Requires [n >= 1]. *)

val bit_msb : int -> width:int -> int -> int
(** [bit_msb x ~width i] is bit [i] of [x] counting from the most
    significant of a [width]-bit value: [bit_msb x ~width 0] is the top
    bit. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded up. Requires [b > 0], [a >= 0]. *)

val round_up : int -> multiple:int -> int
(** [round_up n ~multiple] is the least multiple of [multiple] >= [n]. *)
