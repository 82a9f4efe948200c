(** ChaCha20 stream cipher (RFC 8439), plus reduced-round variants.

    {!block} also takes a round count for the reduced-round variants
    (ChaCha8/12 remain unbroken). The state is
    16 words in immediate ints, so a block allocates nothing beyond its
    two 16-word arrays. *)

val key_len : int
(** 32 bytes. *)

val nonce_len : int
(** 12 bytes. *)

val block_len : int
(** 64 bytes. *)

val block : ?rounds:int -> key:string -> nonce:string -> counter:int32 -> Bytes.t -> unit
(** [block ~key ~nonce ~counter out] writes one 64-byte keystream block
    into [out] (which must be at least 64 bytes). [rounds] defaults to 20
    and must be a positive even number. Raises [Invalid_argument] on bad
    key/nonce/output sizes. *)

val encrypt : ?rounds:int -> key:string -> nonce:string -> ?counter:int32 -> string -> string
(** [encrypt ~key ~nonce msg] XORs [msg] with the keystream starting at
    block [counter] (default 0). Encryption and decryption are the same
    operation. *)
