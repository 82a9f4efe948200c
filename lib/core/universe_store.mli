(** Universe persistence: a whole universe (geometry, keyword-hash seed,
    domain registry, code blobs, data blobs) serialises to one JSON
    document, so the CLI can snapshot a CDN's state and reload it with
    identical keyword-to-bucket placement (the hash seed travels with the
    snapshot — clients that cached indices stay correct). *)

val export : Universe.t -> Lw_json.Json.t

val import : Lw_json.Json.t -> (Universe.t, string) result
(** Rebuilds the universe; code is re-validated, data paths are restored
    verbatim (collision renames that happened at original publish time are
    already materialised in the stored paths). *)

val save : Universe.t -> path:string -> (unit, string) result
val load : path:string -> (Universe.t, string) result
