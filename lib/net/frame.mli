(** Length-prefixed message framing shared by every ZLTP transport:
    4-byte big-endian length followed by the payload. *)

exception Malformed of string

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
