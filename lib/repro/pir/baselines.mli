(** The non-PIR baseline the benchmarks compare against: information-
    theoretic PIR by downloading the whole database (no server
    computation, maximal communication). *)

val trivial_fetch : Lw_store.Snapshot.t -> int -> string
(** [trivial_fetch snap i] simulates a download-everything client: touches
    every bucket (so timing is honest) and returns bucket [i]. *)
