(** Non-PIR baselines the benchmarks compare against.

    - {!trivial_fetch}: information-theoretic PIR by downloading the whole
      database (no server computation, maximal communication).
    - {!direct_fetch}: today's web — the server learns the index.
    - {!Cost} summarises the asymmetric trade-offs so benches can print
      comparison rows. *)

val trivial_fetch : Lw_store.Snapshot.t -> int -> string
(** [trivial_fetch snap i] simulates a download-everything client: touches
    every bucket (so timing is honest) and returns bucket [i]. *)

val direct_fetch : Lw_store.Snapshot.t -> int -> string
(** Non-private read of bucket [i]. *)

module Cost : sig
  type scheme = Two_server_pir | Trivial_pir | Direct

  type t = {
    scheme : scheme;
    upload_bytes : int;
    download_bytes : int;
    server_buckets_touched : int;
    leaks_index : bool;
  }

  val of_scheme : scheme -> domain_bits:int -> bucket_size:int -> t
  val scheme_name : scheme -> string
end
