(** Website fingerprinting (the paper's motivating attack, §1).

    Herrmann et al.'s multinomial naive-Bayes classifier recovers which
    site an encrypted flow visited from nothing but its transfer-size
    profile. We reproduce the attack against two traffic models:

    - {!traditional_trace}: each site has a characteristic object-count
      and size distribution (media-rich home pages vs. text articles —
      "a visit to the media-rich New York Times homepage exhibits a very
      different traffic signature than a visit to an article page").
    - {!lightweb_trace}: every page view is one optional fixed-size code
      fetch plus exactly k fixed-size data exchanges.

    E10 trains on labelled traces and reports accuracy: far above chance
    for the traditional web, at chance for lightweb. *)

type trace = int list
(** Observed message sizes, as an on-path attacker records them. *)

(** {2 Traffic models} *)

val traditional_trace : sites:int -> site:int -> Lw_util.Det_rng.t -> trace
(** Site parameters (object count, size scale) are a deterministic
    function of the site id, so train and test traces share them. *)

val lightweb_trace :
  ?fetches_per_page:int -> code_fetch:bool -> Lw_util.Det_rng.t -> trace
(** The paper's geometry: [fetches_per_page] (default 5) data exchanges
    of 13,927 bytes, plus one 2 MiB code exchange when [code_fetch] (a
    cold cache). The RNG is unused
    (the trace is constant given the flags) but kept for interface
    symmetry. *)

(** {2 Multinomial naive-Bayes classifier} *)

type model

val train : ?bucket:float -> classes:int -> (int * trace) list -> model
(** [bucket] controls size quantisation (default: log base 1.3). *)

val accuracy : model -> (int * trace) list -> float

val chance : classes:int -> float
