(** A logical ZLTP server: holds one key-value universe shard set and
    answers private-GETs in its configured modes.

    The server is backend-agnostic: it is constructed over any
    {!Zltp_backend.t} (versioned, sharded, enclave, single-server
    PIR — or anything else implementing the signature) and drives every
    request through the [BACKEND] contract: pin the queried epoch, call
    the verb, unpin on every exit path. It never pattern-matches on what
    it hosts.

    In two-server PIR mode this object is one of the two non-colluding
    logical servers; a deployment instantiates it twice over replicas of
    the same data. In enclave or single-server PIR mode a single
    instance suffices. *)

type t

val create :
  ?server_id:string ->
  ?hash_key:string ->
  blob_size:int ->
  Zltp_backend.t ->
  t
(** [hash_key] is the public keyword-hash key announced in [Welcome]; it
    must match the store the backend was populated from. *)

val backend : t -> Zltp_backend.t
val blob_size : t -> int

val set_advertised_epoch : t -> int option -> unit
(** Control-plane override of the {e announced} epoch (delegated to the
    backend). [Some e] makes [Welcome]/[Health_reply]/[Sync_reply]
    report [e] as current — queries still serve whatever live epoch they
    name, so a versioned backend can hold the next epoch sealed but
    invisible until the cluster rollout driver flips every replica's
    announcement at once (rollout phase two), and can be flipped back on
    rollback. [None] restores the backend's own epoch. *)

(** {2 Per-connection protocol state} *)

type conn

val conn : t -> conn

val handle : conn -> Zltp_wire.client_msg -> Zltp_wire.server_msg option
(** State-machine step; [None] for [Bye]. Queries before a successful
    [Hello] yield [Err]s, and so does a verb outside the negotiated
    mode; [Health] and [Sync] are answered even before [Hello]. *)

val handle_frame : conn -> string -> string option
(** Decode, {!handle}, encode. Undecodable input yields an encoded [Err];
    an exception escaping the handler yields [Err] with [err_internal] and
    the connection survives — the request path never raises. *)

val serve : t -> Lw_net.Endpoint.t -> unit
(** Run a connection to completion over an endpoint (used by the TCP
    binary and the pipe-based integration tests). Returns cleanly on
    [Endpoint.Closed] or [Endpoint.Timeout]. *)

val endpoint : t -> Lw_net.Endpoint.t
(** In-process connection: a fresh client-side endpoint served by this
    server via {!Lw_net.Endpoint.loopback}. *)
