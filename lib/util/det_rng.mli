(** Deterministic, seedable random number generator (SplitMix64).

    Used for reproducible workloads, synthetic corpora and property tests.
    It is {b not} a cryptographic generator — the protocol stack uses
    [Lw_crypto.Drbg] for key material. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator with the given seed. *)

val of_string_seed : string -> t
(** [of_string_seed s] derives a seed from an arbitrary label, so tests can
    write [of_string_seed "dpf/eval_all"]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bytes : t -> int -> string
(** [bytes t n] is [n] uniformly random bytes. *)
