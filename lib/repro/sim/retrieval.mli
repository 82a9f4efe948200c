(** Retrieval universe over the synthetic corpus (the PIR-RAG shape of
    PAPERS.md, built on the wire-v4 keyword verb): pages are clustered
    into embedding-like buckets by a {e deterministic feature hash} of
    their path tokens — every '/'-segment but the leaf, sub-split on '.'
    and '-' — so pages of one site/section share a cluster, and
    "retrieve the nearest cluster of a query" is answered as [k]
    correlated keyword lookups ({!Zltp_client.keyword_get_batch}).

    Determinism is the point: no RNG and no float embeddings means
    tests, the bench, and separate processes agree on cluster
    membership from the path bytes alone. *)

type t

val build : clusters:int -> Lw_sim.Corpus.t -> t
(** Assign every corpus page to one of [clusters] buckets. Raises
    [Invalid_argument] when [clusters < 1]. *)

val clusters : t -> int

val cluster_of : t -> string -> int
(** The cluster a query lands in: a stored path uses its recorded
    assignment; any other string is feature-hashed the same way. *)

val members : t -> int -> string list
(** The stored paths of one cluster, sorted (may be empty). *)

val non_empty : t -> int
(** Clusters holding at least one page. *)

val retrieve : t -> query:string -> k:int -> string list
(** Up to [k] nearest stored pages of [query] — the keyword keys a
    client then fetches privately in one batched round trip. *)
