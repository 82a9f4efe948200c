(** The ZLTP client session (§2, §3.2), with self-healing.

    In two-server PIR mode the client holds connections to the {e two}
    non-colluding logical servers, generates a fresh DPF key pair per
    fetched index, and XORs the two response shares. In single-server PIR
    mode one connection carries LWE-masked queries against the epoch's
    public hint. In enclave mode one connection carries the request key
    (inside the simulated attested channel).

    Whatever the mode, the application-facing operation is the paper's
    single primitive: [GET(key) -> value], and each mode has one request
    path. Two-server verbs differ only in their frame: a GET sends
    [Pir_query], a keyword GET a [Keyword_query] of its two candidates, a
    batch [Pir_batch]. A single-server GET is a batch of one. Every reply
    passes one check (expected reply, queried epoch, and for PIR the share
    count and each share's length), so a server answering with a share of
    the wrong length costs a failover and, if it persists, an [Error] —
    never an exception or wrong bytes.

    Every operation runs under a {!policy}: a bounded number of attempts
    with jittered exponential backoff under an overall deadline. Each
    logical server {e role} can be backed by several
    replicas; when a connection fails (timeout, close, corrupted reply,
    degraded backend) the client tears it down and fails over to the
    role's next replica, probing it with the cheap [Health] message before
    the handshake.

    {b Privacy of retries.} A retried private-GET never reuses DPF keys:
    every attempt generates a fresh key pair (and a fresh correlation id),
    and both queries of an attempt are sent before either reply is
    awaited. A server comparing a retry against the original therefore
    learns nothing about whether the two attempts target the same index —
    retransmission leaks no more than a brand-new query. Failover itself
    is {e not} hidden (and cannot protect against the two replicas of one
    role colluding; see SECURITY.md). *)

type t

(** {2 Retry policy} *)

type policy = {
  attempts : int;  (** max attempts per operation (>= 1) *)
  base_backoff_s : float;  (** backoff before the 2nd attempt *)
  max_backoff_s : float;  (** exponential growth cap *)
  deadline_s : float;  (** overall per-operation budget *)
}

val default_policy : policy
(** 4 attempts, 50 ms base backoff doubling up to 1 s, 30 s deadline. *)

(** {2 Replicas and connection} *)

type replica

val replica : name:string -> (unit -> (Lw_net.Endpoint.t, string) result) -> replica
(** A dialable replica of one logical server: [dial] is called for the
    initial connection and again on every failover back to this replica. *)

val of_endpoint : name:string -> Lw_net.Endpoint.t -> replica
(** A pre-established connection as a one-shot replica: once its
    connection fails there is nothing to re-dial, so it counts as
    permanently down. *)

val connect_replicated :
  ?prefer:Zltp_mode.t list ->
  ?rng:Lw_crypto.Drbg.t ->
  ?policy:policy ->
  ?clock:Lw_obs.Clock.t ->
  replica list list ->
  (t, string) result
(** [connect_replicated roles] — one replica list per logical server role
    (two roles for PIR, one for enclave mode). Dials one replica per role
    (Health probe, then Hello/Welcome), checks all servers agree on
    session parameters, and fails over across each role's replicas on
    later connection failures. [clock] drives backoff sleeps and deadline
    accounting (virtual clock ⇒ deterministic, instant chaos tests). *)

val connect :
  ?prefer:Zltp_mode.t list ->
  ?rng:Lw_crypto.Drbg.t ->
  ?policy:policy ->
  ?clock:Lw_obs.Clock.t ->
  Lw_net.Endpoint.t list ->
  (t, string) result
(** [connect endpoints] — each endpoint becomes a single-replica role
    ({!of_endpoint}). PIR mode needs exactly two endpoints, enclave mode
    one; a mismatch is an [Error]. *)

val mode : t -> Zltp_mode.t
val blob_size : t -> int
val domain_bits : t -> int

(** {2 Operations} *)

val get : t -> string -> (string option, string) result
(** [get t key] is the private-GET: [Ok None] when no record exists under
    [key] (or a hash collision handed back someone else's record).
    [Error] only after the retry policy is exhausted (or a fatal,
    non-retryable refusal). *)

val get_raw_index : t -> int -> (string, string) result
(** PIR mode only: fetch bucket [index] without keyword hashing (cuckoo
    probing and tests use this). *)

val get_batch : t -> string list -> (string option list, string) result
(** Batched private-GETs (one round trip, server-side fused scan). A
    retried batch regenerates {e all} its DPF keys. *)

(** {2 Keyword search} (PIR mode, against a cuckoo-backed keyword store)

    A keyword GET privately probes {e both} cuckoo candidate buckets of
    the key (salts 0/1 of the Welcome hash key) as one wire-v4
    [Keyword_query]: two fresh DPF key shares per server, answered as a
    single width-2 entry into the server's batch scan — one
    round trip, ~one scan pass. The shape is fixed and query-independent
    (always two probes, even when the candidates coincide), so the verb
    leaks nothing about the key; retries regenerate all DPF keys as
    usual. *)

val keyword_get : t -> string -> (string option, string) result
(** [keyword_get t key] resolves [key] against the keyword store this
    session is connected to. [Ok None] when the key is unpublished. *)

val keyword_get_batch : t -> string list -> (string option list, string) result
(** k correlated keyword lookups in one round trip: the 2k candidate
    probes ride a single [Pir_batch] (one streamed traversal of the data
    for the batch) and are re-paired per keyword on decode — how a cluster
    retrieval fetches its members. *)

(** {2 Epochs and page visits}

    Since wire v3, every PIR query names the database epoch it must be
    answered against (learned from [Welcome], re-learned via [Sync]),
    and the client refuses to XOR shares tagged with any other epoch —
    so two-server reconstruction is consistent {e by construction} even
    while publishers seal new epochs. Epoch trouble (a reply from the
    wrong epoch, [err_epoch_retired], [err_epoch_ahead]) triggers a
    re-sync on both roles — failing over whichever role's replica lags —
    and rides the normal retry loop. *)

val begin_visit : t -> unit
(** Pin the epoch for a multi-fetch page visit: from the next query to
    {!end_visit}, every fetch names the same epoch. One page therefore
    never mixes record versions, and a mid-visit publisher update cannot
    make the page's fetch pattern diverge between the two servers (a
    fingerprinting channel; see SECURITY.md). *)

val end_visit : t -> unit
(** Release the visit pin; the next operation re-learns the freshest
    common epoch. *)

val current_epoch : t -> int option
(** The epoch the next query would name, if one is currently pinned. *)

(** {2 Introspection} *)

val queries_sent : t -> int

val retries : t -> int
(** Attempts beyond the first, summed over all operations. *)

val failovers : t -> int
(** Times a role's preferred replica was abandoned for the next one. *)

val epoch_resyncs : t -> int
(** Times an epoch error forced a [Sync] round. *)

val current_replicas : t -> string option list
(** Per role, the name of the replica currently connected (if any). *)

val close : t -> unit
(** Sends [Bye] best-effort and closes all live connections. *)
