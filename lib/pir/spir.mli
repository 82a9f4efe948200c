(** Single-server PIR (ZipPIR direction): LWE-style construction with a
    per-epoch packed hint and no persistent client-side state.

    The third deployment model beside two-server DPF and enclave+ORAM.
    One server holds the database; privacy rests on a single
    cryptographic assumption (decision-LWE) instead of non-collusion or
    hardware trust. The shape follows the SimplePIR/ZipPIR lineage:

    - The sealed {!Lw_store.Snapshot} at epoch [e] is viewed as a matrix
      [D] of [bucket_size] rows by [2^domain_bits] columns of bytes
      (column [j] = bucket [j]).
    - Per epoch the server publishes a {e hint} [H = D · A (mod 2^32)],
      where [A] is a public [cols x n] matrix expanded from a seed
      derived from the (public) universe hash key and the epoch. The
      hint depends only on the sealed snapshot — it is sealed alongside
      the epoch and is identical for every client.
    - A query for column [c] is the masked selection vector
      [qu = A·s + e + Δ·u_c (mod 2^32)] with fresh secret [s], small
      error [e], and [Δ = 2^24] (plaintext bytes, [p = 256]). Under LWE,
      [qu] is indistinguishable from uniform — the server learns nothing
      about [c].
    - The server's answer is one constant-trace matrix-vector scan
      [ans = D · qu (mod 2^32)]: every bucket is streamed in index
      order whatever the query, the property
      {!Lw_analysis.Trace_check.check_spir_scan} proves dynamically.
    - The client recovers column [c] as [round((ans - H·s) / Δ)]. The
      hint is cached per epoch and dropped on re-sync: the client keeps
      {e no} long-lived state, only the per-epoch public hint any client
      could re-fetch.

    Correctness bound: worst-case accumulated noise is
    [255 · 2^domain_bits · |e|] with ternary errors ([|e| <= 1]), which
    must stay under [Δ/2 = 2^23] — hence the [domain_bits <= 14] guard.
    Throughput is modest by design (one multiply-accumulate per database
    byte); correctness, obliviousness and epoch pinning are the bar. *)

type params = { n : int  (** LWE secret dimension *) }

val default_params : params
(** [n = 64]: a demonstration dimension sized for tests and benches. A
    production deployment of this construction needs [n >= 1024] (and a
    hardened error distribution) for a real LWE security margin — see
    SECURITY.md. *)

val max_domain_bits : int
(** 14: largest domain for which the worst-case noise bound stays under
    [Δ/2] with ternary errors. *)

val hint_bytes : params -> bucket_size:int -> int
(** Serialized hint size for a geometry: [48 + bucket_size * n * 4] (the
    48-byte header carries the epoch, dimensions and the public [A]
    seed, so a client needs nothing beyond the fetched hint). *)

val query_bytes : domain_bits:int -> int
(** Serialized query size: [12 + 2^domain_bits * 4]. *)

(** {2 Hints} *)

type hint
(** The per-epoch packed hint matrix [H = D·A], client-side decoded. *)

val hint_of_snapshot : params -> Lw_store.Snapshot.t -> string
(** Compute and serialize the hint for one sealed epoch. Cost: one
    multiply-accumulate per database byte per secret dimension — paid
    once per epoch, amortized over every client and query. *)

val hint_epoch : hint -> int

val decode_hint : string -> (hint, string) result
(** Parse a serialized hint (header + [rows x n] u32 matrix). *)

(** {2 Client} *)

module Client : sig
  type secret
  (** The per-query LWE secret [s] — taint-tracked as a secret source
      (lib/analysis): it must never reach a branch, memory index or
      allocation size. It lives only for the round trip; nothing about
      it persists. *)

  val query :
    hint -> domain_bits:int -> index:int -> Lw_crypto.Drbg.t -> secret * string
  (** Build the masked selection vector for [index]. The target column
      is folded in branch-free (arithmetic equality mask, no
      secret-indexed write), so the generation trace is independent of
      [index]. Returns the ephemeral secret and the serialized query.
      Raises [Invalid_argument] if [domain_bits] exceeds
      {!max_domain_bits}. *)

  val recover : hint -> secret -> string -> (string, string) result
  (** [recover hint secret answer] subtracts [H·s] and rounds each row
      back to a byte: the queried bucket's contents ([bucket_size]
      bytes). Fails on a malformed or mis-sized answer. *)
end

(** {2 Server} *)

val answer : Lw_store.Snapshot.t -> string -> (string, string) result
(** [answer snap query] is the serialized [D · qu] response: one
    constant-trace pass over every bucket of the snapshot in index
    order (each bucket is recorded in the access trace exactly once,
    exactly as the two-server XOR scan's trace). Fails on a malformed
    query or a column-count/domain mismatch. *)

(** {2 Hint cache}

    One hint per live epoch, computed on first request and memoized —
    what a [Single]-mode server serves the per-epoch hint fetch verb
    from, and what {!Universe.publish_updates} warms so the hint is
    sealed alongside each epoch. *)

module Hint_cache : sig
  type t

  val create : ?capacity:int -> params -> t
  (** [capacity] (default 4) bounds retained epochs; older entries are
      evicted oldest-first — mirroring the store's keep window. *)

  val get : t -> Lw_store.t -> epoch:int -> (string, Lw_store.pin_error) result
  (** The serialized hint for [epoch], computing (under the epoch's pin)
      and caching it on first request. *)

  val warm : t -> Lw_store.t -> unit
  (** Precompute the current epoch's hint (ignores pin races). *)
end
