(** A small JSON library.

    Lightweb data blobs carry "relatively small JSON data objects" (§3.1),
    and the container ships no JSON package, so this module provides the
    value type, a recursive-descent parser and a printer. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a human-readable position message. *)

val of_string : string -> t
(** [of_string s] parses a single JSON value (surrounding whitespace
    allowed; trailing garbage rejected). Raises {!Parse_error}. *)

val of_string_opt : string -> t option

val to_string : ?pretty:bool -> t -> string
(** [to_string v] renders [v] compactly; [~pretty:true] indents with two
    spaces. Output re-parses to an equal value. *)

val pp : Format.formatter -> t -> unit

(** {2 Accessors} — all raise [Invalid_argument] on a type mismatch. *)

val member : string -> t -> t
(** [member k obj] is the value bound to [k], or [Null] when absent. *)

val member_opt : string -> t -> t option
val get_string : t -> string
val get_number : t -> float
val get_int : t -> int
val get_bool : t -> bool
val get_list : t -> t list

val equal : t -> t -> bool
(** Structural equality; object fields compare order-insensitively. *)
