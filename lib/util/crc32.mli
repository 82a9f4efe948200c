(** CRC-32 (IEEE 802.3). Detects {e every} single-bit error and short
    bursts — the guarantee the wire-integrity trailer relies on. Not a
    MAC: no adversarial collision resistance. *)

val digest : string -> int32

val update : int32 -> string -> pos:int -> len:int -> int32
(** Incremental: [update 0l s ~pos:0 ~len] = [digest (String.sub s pos len)],
    and [update (digest a) b ~pos:0 ~len:(String.length b)] =
    [digest (a ^ b)]. Raises [Invalid_argument] unless [pos] and [len]
    give a range inside [s]. *)
