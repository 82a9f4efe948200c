(** Multiple universes and peering (§3.5).

    A CDN may run several universes in different size classes (small /
    medium / large blob geometry), trading per-request cost against the
    largest page it can carry — the attacker learns only {e which class} a
    user fetched from. CDNs peer: content published to one propagates to
    every peer carrying the same class, and a shared domain registry keeps
    each domain under one owner everywhere. *)

type size_class = Small | Medium | Large

val class_name : size_class -> string
val default_class_geometry : size_class -> Universe.geometry

(** {2 Shared domain registry} *)

type registry

val registry : unit -> registry
val register : registry -> publisher:string -> domain:string -> (unit, string) result

(** {2 CDNs} *)

type cdn

val create_cdn :
  ?seed:string ->
  ?classes:(size_class * Universe.geometry) list ->
  name:string ->
  registry ->
  cdn
(** Default classes: all three, with {!default_class_geometry}. *)

val cdn_name : cdn -> string
val universes : cdn -> (size_class * Universe.t) list
val universe : cdn -> size_class -> Universe.t option

val peer : cdn -> cdn -> unit
(** Symmetric, idempotent. *)

val peers : cdn -> string list

val publish :
  cdn -> publisher:string -> size_class -> Publisher.site -> (int, string) result
(** Register the domain globally, push to this CDN's universe of the given
    class, then propagate to every peer carrying that class. Returns the
    number of universes now serving the site. *)
