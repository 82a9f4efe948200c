(** Real TCP transport (loopback-tested): thread-per-connection server and
    blocking client, both speaking {!Frame}-framed messages and exposed as
    {!Endpoint.t}s so the whole ZLTP stack runs unchanged over sockets. *)

type server

val serve :
  ?recv_timeout_s:float ->
  host:string ->
  port:int ->
  (Endpoint.t -> unit) ->
  server
(** [serve ~host ~port handler] binds and starts accepting in a background
    thread; [handler] runs in its own thread per connection and owns the
    endpoint (the socket closes when it returns or raises). Port 0 picks a
    free port — read it back with {!port}. The accept backlog is 16.
    [recv_timeout_s] gives every per-connection endpoint a receive
    deadline (see {!connect}). *)

val port : server -> int

val shutdown : server -> unit
(** Stop accepting, {e and} interrupt every live per-connection endpoint,
    so handler threads blocked in [recv] wake with [Endpoint.Closed] and
    terminate promptly instead of leaking. Descriptors are closed by the
    threads that own them (the accept thread for the listener, each
    handler thread for its connection) — never cross-thread, which would
    race in-flight IO against fd-number reuse and could desync an
    unrelated connection's frame stream. *)

val connect :
  ?connect_timeout_s:float ->
  ?recv_timeout_s:float ->
  host:string ->
  port:int ->
  unit ->
  Endpoint.t
(** Blocking client connection. With [recv_timeout_s] set, [recv] raises
    {!Endpoint.Timeout} when no complete frame arrives within the deadline
    (via [SO_RCVTIMEO]); the connection should be abandoned afterwards —
    a frame may have been half-read.

    With [connect_timeout_s] set, the dial itself is bounded: the socket
    connects non-blocking and is polled for at most that long, so a dial
    to a dead or blackholed host (SYN never answered — e.g. a
    [SIGSTOP]ped process behind a saturated accept backlog) raises
    {!Endpoint.Timeout} instead of blocking for the kernel's
    minutes-long retransmission schedule. A refused connection still
    fails fast with [Unix.Unix_error] either way; on any failure the
    socket is closed before the exception escapes. *)
