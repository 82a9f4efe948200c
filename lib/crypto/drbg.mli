(** A deterministic random bit generator built on the ChaCha20 keystream,
    with forward secrecy via key ratcheting.

    This is the protocol stack's source of key material (DPF randomness,
    AEAD nonces, session ids). Seed it from the OS for real use, or from a
    fixed string for reproducible tests. *)

type t

val create : seed:string -> t
(** [create ~seed] derives the initial key from [seed] with SHA-256; any
    seed length is accepted. *)

exception No_entropy of string
(** The entropy source could not be read, or returned fewer than 32
    bytes. *)

val system : ?source:(unit -> string) -> unit -> t
(** [system ()] seeds from 32 bytes of [/dev/urandom]. It fails closed:
    if the source raises [Sys_error] or [End_of_file], or returns fewer
    than 32 bytes, it raises {!No_entropy} rather than seed from
    anything guessable. [source] replaces the OS source; tests use it to
    exercise the failure. *)

val generate : t -> int -> string
(** [generate t n] produces [n] pseudorandom bytes and ratchets the key, so
    compromise of the current state does not reveal past output. *)

val generate_into : t -> Bytes.t -> pos:int -> len:int -> unit
(** [generate_into t dst ~pos ~len] writes the [len] bytes {!generate}
    would return into [dst] at [pos], allocating nothing. Raises
    [Invalid_argument] on a bad range. *)

val uniform_int : t -> int -> int
(** [uniform_int t bound] is uniform in [[0, bound)] without modulo bias.
    Requires [bound > 0]. *)
