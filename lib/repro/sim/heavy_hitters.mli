(** Private heavy hitters over lightweb query strings — the concrete
    machinery behind §4's "private collection of aggregate statistics"
    (the CDN billing publishers by query volume without learning any
    individual user's queries).

    Each client submits one incremental-DPF key pair for (the hash of) the
    path it fetched; one key goes to each of two non-colluding aggregation
    servers. The servers then walk the prefix tree together (the
    Boneh–Boyle–Corrigan-Gibbs–Gilboa–Ishai "Poplar" descent): at each
    level they sum their local additive shares for every surviving
    candidate prefix, combine the two totals — which reveals {e only} the
    aggregate count per prefix — and keep prefixes above the threshold.
    Pruning keeps the work near-linear in the number of heavy prefixes
    instead of the domain size. *)

type contribution = { key0 : Idpf.key; key1 : Idpf.key }

val contribute : domain_bits:int -> alpha:int -> Lw_crypto.Drbg.t -> contribution
(** What a client uploads (split between the servers). *)

type hitter = { prefix : int; level : int; count : int64 }

val collect :
  domain_bits:int -> threshold:int64 -> contribution list -> hitter list
(** Runs both servers' halves of the descent and returns every prefix (at
    every level) whose combined count reaches [threshold], in (level,
    prefix) order. *)

val server_sum : party:int -> level:int -> prefix:int -> contribution list -> int64
(** One server's local share total for a candidate — uniformly random in
    isolation (the privacy test checks this is not a plaintext count). *)

val leaves : domain_bits:int -> hitter list -> hitter list
(** Only the full-depth hitters (the heavy query strings themselves). *)
