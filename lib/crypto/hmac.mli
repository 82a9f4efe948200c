(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    Used for the access-control key schedule (§3.3): per-publisher epoch
    keys are derived with HKDF and rotated to revoke readers. *)

val hmac_sha256 : key:string -> string -> string
(** [hmac_sha256 ~key msg] is the 32-byte MAC of [msg]. Keys of any length
    are accepted (hashed down when longer than the block size). *)

val hkdf : ?salt:string -> info:string -> len:int -> string -> string
(** [hkdf ?salt ~info ~len ikm] is extract-then-expand in one call. *)
