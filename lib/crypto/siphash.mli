(** SipHash-2-4 (Aumasson–Bernstein), a keyed 64-bit PRF.

    The PIR keyword layer hashes arbitrary path strings into the DPF output
    domain with SipHash; the key is per-universe so publishers cannot grind
    collisions offline. *)

val to_domain : key:string -> domain_bits:int -> string -> int
(** [to_domain ~key ~domain_bits msg] maps [msg] into [[0, 2^domain_bits)]
    by truncating {!hash}. [domain_bits] must be in [1..62]. *)
