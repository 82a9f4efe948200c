(** Hexadecimal encoding and decoding of byte strings. *)

val encode : string -> string
(** [encode s] is the lowercase hexadecimal rendering of [s]. *)

val decode_opt : string -> string option
(** [decode_opt h] is [Some (decode h)], or [None] if [h] is malformed. *)
