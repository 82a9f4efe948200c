(** ChaCha20 stream cipher (RFC 8439), 20 rounds.

    It runs in C ([channel_stubs.c]), compiled once per vector width:
    ["avx512"] on x86-64, and ["baseline"] everywhere. The CPU picks the
    build once at load; every build computes the same bytes, and none
    indexes a table or branches on key or message data. *)

val build : unit -> string
(** The build every call runs: the first of {!builds}, picked once when
    the program loads, from CPUID alone. *)

val builds : unit -> string list
(** Every build this CPU can run, widest first, ending with
    ["baseline"]. {!encrypt_on} accepts any of them; any other name
    raises [Invalid_argument]. *)

val build_index : string -> int
(** The index the C calls take for a build of {!builds}; [Aead] runs
    [build_index (build ())]. Raises [Invalid_argument] on any other
    name. *)

val block : key:string -> nonce:string -> counter:int32 -> Bytes.t -> unit
(** [block ~key ~nonce ~counter out] writes one 64-byte keystream block
    into [out] (which must be at least 64 bytes). Raises
    [Invalid_argument] on bad key/nonce/output sizes. *)

val encrypt : key:string -> nonce:string -> ?counter:int32 -> string -> string
(** [encrypt ~key ~nonce msg] XORs [msg] with the keystream starting at
    block [counter] (default 0); the counter wraps at 32 bits.
    Encryption and decryption are the same operation. *)

val encrypt_on :
  build:string -> key:string -> nonce:string -> ?counter:int32 -> string -> string
(** {!encrypt} on the named build from {!builds}. *)

val keystream : key:string -> nonce:string -> int -> string
(** [keystream ~key ~nonce len] is the first [len] bytes of the
    keystream from block 0: [encrypt] of [len] zero bytes. *)
