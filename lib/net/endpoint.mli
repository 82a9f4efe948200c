(** A bidirectional, message-oriented connection end.

    ZLTP's client and server speak through this interface, so the same
    protocol code runs over an in-memory pipe (unit/integration tests), a
    request handler (in-process CDN simulation), a byte-counting wrapper
    (cost experiments), or a real TCP socket. *)

type t = {
  send : string -> unit; (** enqueue one message; raises [Closed] after close *)
  recv : unit -> string; (** block for the next message; raises [Closed] *)
  close : unit -> unit; (** idempotent *)
}

exception Closed

exception Timeout
(** Raised by [recv] when a receive deadline expires before a message
    arrives: by {!Tcp} endpoints configured with a receive timeout, and by
    {!Faulty} wrappers when an injected fault swallows the message a
    request/response peer is waiting for. The connection should be
    considered out of sync afterwards — self-healing clients close it and
    re-dial. *)

val pipe : unit -> t * t
(** [pipe ()] is a thread-safe in-memory duplex: messages sent on one end
    arrive at the other, in order. *)

val loopback : (string -> string) -> t
(** [loopback handler] is the client end of a connection to an in-process
    server: every [send req] makes [handler req]'s reply available to the
    next [recv]. *)

type counters = { mutable sent_bytes : int; mutable recv_bytes : int; mutable messages : int }

val with_counters : t -> t * counters
(** Wrap an endpoint, accounting every message (payload bytes, both
    directions). *)
