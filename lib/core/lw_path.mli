(** Lightweb paths (§3.1): every data blob has a unique path whose
    top-level component must be a valid domain —
    ["nytimes.com/world/africa/2023/06/headlines.json"]. Beyond the
    domain, any format goes. *)

type t

val parse : string -> (t, string) result
(** Accepts ["domain"] or ["domain/anything..."]. The domain must be
    dot-separated LDH labels with at least two labels, each 1..63 chars,
    total ≤ 253. *)

val domain : t -> string
val rest : t -> string
(** Either [""] or a string starting with ['/']. *)

val valid_domain : string -> bool

val in_domain : t -> string -> bool
(** [in_domain p d]: does [p] live under domain [d]? The browser enforces
    this on every key a code blob plans to fetch (domain separation). *)
