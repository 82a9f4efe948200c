(** SHA-256 (FIPS 180-4). *)

val digest_len : int
(** 32 bytes. *)

type ctx
(** A streaming hash context. *)

val init : unit -> ctx
val update : ctx -> string -> unit
val update_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit

val final : ctx -> string
(** [final ctx] returns the 32-byte digest. The context must not be used
    again afterwards. *)

val digest : string -> string
(** [digest s] is the one-shot SHA-256 of [s]. *)
