(** Browsing-session workload generator (§3.2's leakage analysis and the
    §4 user economics): a stream of timestamped page visits with Zipf site
    popularity and per-site Zipf page popularity. *)

type visit = {
  time_s : float; (** seconds since the session start *)
  site : int;
  page : int; (** page rank within the site *)
}

type params = {
  sites : int;
  pages_per_site : int;
  visits : int;
  mean_dwell_s : float; (** mean think time between page views *)
  site_exponent : float;
  page_exponent : float;
}

val default_params : params
(** 20 sites × 200 pages, 250 visits, 90 s dwell. *)

val generate : params -> Lw_util.Det_rng.t -> visit list
(** Deterministic given the RNG; inter-arrival times are exponential with
    the given mean. *)

type burst = {
  burst_time_s : float;
  burst_site : int; (** the site whose cluster the "search" hit *)
  burst_pages : int list; (** [burst_k] page ranks, duplicates allowed *)
}
(** A correlated search burst: one cluster retrieval served as [burst_k]
    keyword fetches against a single site. *)

val search_bursts : burst_k:int -> params -> Lw_util.Det_rng.t -> burst list
(** One burst per visit of {!generate}: the visit's page plus
    [burst_k - 1] further draws from the same page Zipf. The resulting
    per-burst indices are correlated (one site) and may repeat —
    deliberately non-independent batch traffic. *)

val gets_per_month : Cost_model.user_profile -> float

val code_fetches : visit list -> int
(** Number of first-visits to a domain = code-blob fetches a fresh client
    would make over the session. *)
