(** A simulated hardware enclave serving private key-value lookups over
    Path ORAM — ZLTP's second mode of operation (§2.2).

    The simulation draws the trust boundary explicitly: everything inside
    {!t} except the ORAM bucket tree is "enclave private memory" (key
    directory, position map, stash); the ORAM tree plays untrusted host
    memory, and {!observed_trace} is exactly what a compromised host OS
    would see. Lookups for absent keys still perform a real (dummy) ORAM
    access, so hit/miss is not leaked either.

    Against the PIR mode this trades the linear scan for polylogarithmic
    work per request — the E8 ablation — at the price of trusting the
    hardware vendor (§2.2 lists the known enclave attacks). *)

type t

val create : ?seed:string -> capacity:int -> value_size:int -> unit -> t
(** [create ~capacity ~value_size ()] serves up to [capacity] records with
    values up to [value_size] bytes. [seed] fixes the enclave's internal
    randomness for reproducible tests. *)

val put : t -> key:string -> value:string -> (unit, [ `Full | `Too_large ]) result
(** Publisher-side ingest (one oblivious access). *)

val get : t -> string -> string option
(** Client-facing private lookup: always exactly one oblivious access. *)

val remove : t -> string -> bool

val observed_trace : t -> int list
(** Leaf indices of every ORAM path touched so far — the adversary's whole
    view of memory. *)

val clear_trace : t -> unit

val accesses_per_get : t -> int
(** Physical buckets touched per lookup, [tree_height + 1]: the polylog
    cost that E8 compares against the PIR linear scan. *)
