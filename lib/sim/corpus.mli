(** Dataset profiles and synthetic corpora.

    The paper sizes lightweb against the C4 crawl (305 GiB compressed,
    360M pages, 0.9 KiB average) and Wikipedia (21 GiB, 60M pages,
    0.4 KiB). The cost model consumes the {!profile} numbers directly;
    the end-to-end experiments run on {!generate}d corpora with the same
    size geometry (log-normal page sizes, Zipf site popularity) — server
    cost depends only on geometry, never on page text. *)

type profile = {
  name : string;
  total_bytes : float;
  pages : float;
  avg_page_bytes : float;
}

val c4 : profile
val wikipedia : profile

val gib : float
(** 2^30. *)

(** {2 Synthetic corpora} *)

type page = { path : string; body : string }

type t = {
  profile : profile;
  sites : string array;
  pages : page array;
}

val generate :
  ?sites:int -> ?sigma:float -> profile -> n_pages:int -> Lw_util.Det_rng.t -> t
(** [generate profile ~n_pages rng] draws [n_pages] pages across [sites]
    (default 50) synthetic domains. Page sizes are log-normal with mean
    [profile.avg_page_bytes] and shape [sigma] (default 0.7), truncated to
    [[32, 16 * avg]]. *)

val to_sites : t -> (string * page list) list
(** Pages grouped per site (for publishing through the real pipeline). *)
