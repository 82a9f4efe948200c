(** Universe persistence: a whole universe (geometry, keyword-hash seed,
    domain registry, code blobs, data blobs) serialises to one JSON
    document, so the CLI can snapshot a CDN's state and reload it with
    identical keyword-to-bucket placement (the hash seed travels with the
    snapshot — clients that cached indices stay correct). *)

val save : Universe.t -> path:string -> (unit, string) result
val load : path:string -> (Universe.t, string) result
