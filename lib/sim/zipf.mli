(** Zipfian sampling for synthetic workloads: page and site popularity on
    the web is famously heavy-tailed, and the paper's economics (§4)
    hinge on the fact that PIR cost is popularity-{e independent}. *)

type t

val create : ?exponent:float -> n:int -> unit -> t
(** Ranks [0..n-1] with P(rank k) ∝ 1/(k+1)^exponent (default 1.0). *)

val sample : t -> Lw_util.Det_rng.t -> int
(** O(1) per draw via a Walker/Vose alias table built once at {!create}:
    one uniform index plus one biased coin, independent of [n] — the
    fleet simulation draws millions of ranks. *)
