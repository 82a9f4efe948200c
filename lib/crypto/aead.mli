(** ChaCha20-Poly1305 AEAD (RFC 8439).

    Backs lightweb access control (§3.3): publishers encrypt blobs under
    rotating epoch keys so the CDN never sees protected content. *)

val seal : key:string -> nonce:string -> ?aad:string -> string -> string
(** [seal ~key ~nonce ~aad pt] is [ciphertext || tag]. *)

val open_ : key:string -> nonce:string -> ?aad:string -> string -> string option
(** [open_ ~key ~nonce ~aad ct_and_tag] is [Some plaintext] when the tag
    verifies (constant-time comparison) and [None] otherwise. *)
