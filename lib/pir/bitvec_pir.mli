(** The classic two-server PIR of Chor–Goldreich–Kushilevitz–Sudan, as a
    baseline: the client sends server 0 a uniformly random bit vector [r]
    over the bucket domain and server 1 the vector [r XOR e_index]; each
    server XORs the buckets its vector selects, and the two answers XOR to
    the target bucket.

    Same scan cost and same download as the DPF scheme, but the upload is
    [N/8] bytes instead of [O(λ·log N)] — the gap that motivates using
    DPFs (E11 measures it). *)

type query = { q0 : Bytes.t; q1 : Bytes.t }
(** Bit vectors, packed 8 buckets per byte, little-endian within the
    byte. *)

val query : domain_bits:int -> index:int -> Lw_crypto.Drbg.t -> query

val upload_bytes : domain_bits:int -> int
(** Per server. *)

val answer : Lw_store.Snapshot.t -> Bytes.t -> string
(** XOR of the buckets selected by the packed vector. *)

val combine : resp0:string -> resp1:string -> string

val fetch : Lw_store.Snapshot.t -> index:int -> Lw_crypto.Drbg.t -> string
(** Convenience: full protocol round against one snapshot playing both
    (honest) servers. *)
