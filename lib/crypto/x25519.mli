(** X25519 Diffie–Hellman (RFC 7748): the Montgomery ladder in C
    ([channel_stubs.c]) over five 51-bit limbs, a fixed 255 steps whose
    conditional swaps are masks.

    Backs {!Secure_channel}: the client of an enclave-mode ZLTP server
    encrypts to the enclave's public key, so the untrusted host relaying
    the bytes learns nothing — the "attested TLS channel terminating
    inside the enclave" of §2.2. *)

val key_len : int
(** 32 bytes. *)

val scalarmult : scalar:string -> point:string -> string
(** [scalarmult ~scalar ~point] is RFC 7748 X25519(k, u); both arguments
    and the result are 32-byte little-endian strings. The scalar is
    clamped internally. *)

val base_point : string

val public_of_secret : string -> string
(** [scalarmult ~scalar ~point:base_point]. *)

type keypair = { secret : string; public : string }

val keypair : Drbg.t -> keypair
(** Fresh keypair from the DRBG. *)

val shared_secret : secret:string -> public:string -> (string, string) result
(** DH with contributory-behaviour check: rejects the all-zero shared
    secret produced by low-order points. *)
