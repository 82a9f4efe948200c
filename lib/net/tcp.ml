type server = {
  sock : Unix.file_descr;
  port : int;
  mutable running : bool;
  mutable listener_closed : bool;
  mutable conns : (Endpoint.t * (unit -> unit)) list; (* endpoint, interrupt *)
  lock : Mutex.t;
}

(* Frame IO straight over the descriptor (no channels): [Unix.read]
   surfaces EAGAIN from a SO_RCVTIMEO socket, which is how a receive
   deadline reaches the caller as [Endpoint.Timeout].

   Only the owning thread may [Unix.close] the descriptor. A cross-thread
   close races the owner's in-flight [read]/[write]: once the fd number is
   reused by a later [socket]/[accept], the stale IO lands on an unrelated
   connection and silently desyncs its frame stream. Cross-thread teardown
   goes through [interrupt], which only [Unix.shutdown]s — the blocked IO
   wakes with EOF, the owner unwinds and closes the fd itself. *)
let endpoint_pair_of_fd ?recv_timeout_s fd =
  (match recv_timeout_s with
  | Some t when t > 0. -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO t
  | _ -> ());
  let lock = Mutex.create () in
  let closed = ref false in
  let interrupt () =
    Mutex.lock lock;
    if not !closed then
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Mutex.unlock lock
  in
  let close () =
    Mutex.lock lock;
    if not !closed then begin
      closed := true;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    end;
    Mutex.unlock lock
  in
  let ep =
    {
      Endpoint.send =
        (fun msg ->
          if !closed then raise Endpoint.Closed;
          try Frame.write_fd fd msg
          with Unix.Unix_error _ | Sys_error _ -> raise Endpoint.Closed);
      recv =
        (fun () ->
          if !closed then raise Endpoint.Closed;
          try Frame.read_fd fd with
          | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              (* the deadline fired mid-frame: the stream cannot resync *)
              raise Endpoint.Timeout
          | End_of_file | Frame.Malformed _ | Unix.Unix_error _ | Sys_error _ ->
              raise Endpoint.Closed);
      close;
    }
  in
  (ep, interrupt)

let endpoint_of_fd ?recv_timeout_s fd = fst (endpoint_pair_of_fd ?recv_timeout_s fd)

let register server ep interrupt =
  Mutex.lock server.lock;
  server.conns <- (ep, interrupt) :: server.conns;
  Mutex.unlock server.lock

let unregister server ep =
  Mutex.lock server.lock;
  server.conns <- List.filter (fun (e, _) -> e != ep) server.conns;
  Mutex.unlock server.lock

let serve ?recv_timeout_s ~host ~port handler =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock 16;
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let server =
    {
      sock;
      port = actual_port;
      running = true;
      listener_closed = false;
      conns = [];
      lock = Mutex.create ();
    }
  in
  let accept_loop () =
    (while server.running do
       match Unix.accept sock with
       | fd, _peer ->
           let conn_main () =
             let ep, interrupt = endpoint_pair_of_fd ?recv_timeout_s fd in
             register server ep interrupt;
             (try handler ep with _ -> ());
             unregister server ep;
             ep.Endpoint.close ()
           in
           ignore (Thread.create conn_main ())
       | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
           server.running <- false
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done);
    (* the accept thread owns the listening fd: closing it from [shutdown]
       while [accept] is blocked would free the fd number for reuse with
       this loop still poised to accept on it — a reused listener would
       have its connections stolen *)
    Mutex.lock server.lock;
    (try Unix.close sock with Unix.Unix_error _ -> ());
    server.listener_closed <- true;
    Mutex.unlock server.lock
  in
  ignore (Thread.create accept_loop ());
  server

let port s = s.port

let shutdown s =
  if s.running then begin
    s.running <- false;
    (* wake the accept thread with EINVAL; it closes the listening fd
       itself (see accept_loop) *)
    Mutex.lock s.lock;
    if not s.listener_closed then
      (try Unix.shutdown s.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    let conns = s.conns in
    s.conns <- [];
    Mutex.unlock s.lock;
    (* also interrupt every live per-connection endpoint, so handler
       threads blocked in recv wake with [Closed] and exit instead of
       leaking past the server's lifetime; each handler thread closes its
       own fd on the way out *)
    List.iter (fun (_, interrupt) -> interrupt ()) conns
  end

(* Bounded dial: a non-blocking [connect] turns the kernel's SYN
   retransmission loop (minutes against a blackholed or backlog-saturated
   host) into an [EINPROGRESS] we can poll with a deadline. Without the
   bound, a supervisor restart loop that dials a dead shard would hang
   with it. *)
let connect_bounded sock addr timeout_s =
  Unix.set_nonblock sock;
  (match Unix.connect sock addr with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
      (* a real-time deadline over a real socket: the virtual clocks the
         raw-timestamp rule protects cannot drive kernel connect timing *)
      let now () = Unix.gettimeofday () (* lw-lint: allow raw-timestamp nondeterminism *) in
      let deadline = now () +. timeout_s in
      let rec await () =
        let remaining = deadline -. now () in
        if remaining <= 0. then raise Endpoint.Timeout
        else
          match Unix.select [] [ sock ] [] remaining with
          | _, [], _ -> raise Endpoint.Timeout
          | _, _ :: _, _ -> (
              (* writable: either connected or failed — SO_ERROR tells *)
              match Unix.getsockopt_error sock with
              | None -> ()
              | Some err -> raise (Unix.Unix_error (err, "connect", "")))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      in
      await ());
  Unix.clear_nonblock sock

let connect ?connect_timeout_s ?recv_timeout_s ~host ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (try
     match connect_timeout_s with
     | Some t when t > 0. -> connect_bounded sock addr t
     | _ -> Unix.connect sock addr
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  endpoint_of_fd ?recv_timeout_s sock
