(** Length-prefixed message framing shared by every ZLTP transport:
    4-byte big-endian length followed by the payload. *)

val max_frame_size : int
(** 64 MiB — larger than any code blob; a corrupt length prefix fails fast
    instead of allocating wildly. *)

val encode : string -> string
(** [encode payload] prepends the length header. Raises [Invalid_argument]
    beyond {!max_frame_size}. *)

exception Malformed of string

val decode_header : string -> int
(** [decode_header h] parses a 4-byte header. Raises {!Malformed}. *)

val header_size : int

val read_fd : Unix.file_descr -> string
(** Read one frame via [Unix.read], looping over short reads until the
    full header and payload arrive. Raises [End_of_file] only on a cleanly
    closed descriptor (EOF exactly at a frame boundary); an EOF {e inside}
    a frame — header or payload — raises {!Malformed}, because the stream
    can never resync. Lets [Unix.Unix_error (EAGAIN | EWOULDBLOCK, _, _)]
    from a receive-timeout socket propagate to the caller (the {!Tcp}
    endpoint maps it to {!Endpoint.Timeout}). *)

val write_fd : Unix.file_descr -> string -> unit
(** Write one frame via [Unix.write], looping over partial writes. *)
