(** Keyword-to-index mapping and collision accounting (§5.1).

    Path strings hash into the DPF output domain with a per-universe
    SipHash key. With [n] keys in a [2^d] domain, a newly published key
    collides with an existing one with probability [n/2^d] — the paper's
    "at most 1/4 when the server is almost at capacity" (2^20 keys,
    2^22 domain). *)

type t

val create : hash_key:string -> domain_bits:int -> t
(** [hash_key] is the 16-byte SipHash key; [domain_bits] in [1..62]. *)

val index_of_key : t -> string -> int

val derive : t -> salt:int -> t
(** [derive t ~salt] is an independent mapping over the same domain (used
    by cuckoo hashing's second table). *)

val new_key_collision_probability : n_keys:int -> domain_bits:int -> float
(** Probability the next inserted key lands on an occupied slot. *)

val any_collision_probability : n_keys:int -> domain_bits:int -> float
(** Birthday bound: probability any two of [n_keys] collide,
    [1 - exp(-n(n-1)/2^(d+1))]. *)

val monte_carlo_new_key_collision :
  t -> n_keys:int -> trials:int -> Lw_util.Det_rng.t -> float
(** Empirical estimate of {!new_key_collision_probability} using random
    keys through the real hash. *)
