(** The ZLTP wire protocol: message types and binary codec.

    A session opens with [Hello]/[Welcome] (parameter discovery + mode
    negotiation, §2), then carries private-GET exchanges. PIR-mode queries
    carry a serialised DPF key share; enclave-mode queries carry the
    request key itself, which in a real deployment travels inside the
    attested TLS channel that terminates {e inside} the enclave — the
    untrusted host never sees it.

    Since protocol version 2 every query carries a correlation id [qid]
    echoed by its reply. The id is public session metadata (never derived
    from the request key) and is what makes recovery safe on a flaky
    network: a client that timed out and retried can discard the late or
    duplicated reply of an earlier attempt instead of silently XOR-ing
    mismatched shares into a wrong value. [Health] is a cheap liveness and
    degradation probe — valid even before [Hello] — used by clients to
    pick a healthy replica when failing over.

    Protocol version 3 makes database {e epochs} first-class: PIR queries
    name the epoch they must be answered against, and every PIR reply
    echoes the epoch it was computed from. Two-server reconstruction is
    XOR over two shares, which is correct only when both servers scanned
    bit-identical databases — with versioned storage underneath, "same
    epoch" is exactly that guarantee, checked structurally instead of
    hoped for. A server that no longer holds (or does not yet hold) the
    named epoch answers [Err] with {!err_epoch_retired} /
    {!err_epoch_ahead}, and the [Sync]/[Sync_reply] pair — valid before
    [Hello], like [Health] — lets a client cheaply re-learn a replica's
    published epoch range before retrying.

    Protocol version 4 makes keyword search a first-class verb:
    [Keyword_query] carries {e two} DPF key shares — one per cuckoo
    candidate bucket of the (hidden) search key — that the server answers
    as a single width-2 entry into its batch scan, so a
    keyword GET costs ~one scan pass, not two round trips. The two-probe
    shape is fixed and query-independent: every keyword query ships
    exactly two keys and receives exactly two shares, whether or not the
    key's candidates coincide, so the verb leaks nothing about the key
    beyond "a keyword lookup happened".

    Protocol version 5 adds the single-server PIR mode ([Zltp_mode.Single])
    as first-class verbs: [Spir_hint_req]/[Spir_hint] fetch the per-epoch
    public hint (the packed [H = D·A] matrix any client could recompute —
    it carries no per-client state), and [Spir_query]/[Spir_answer] carry
    the LWE-masked selection vector and the server's matrix-vector scan
    over the pinned epoch. Both verbs are epoch-addressed exactly like
    [Pir_query]: a stale epoch answers [Err {err_epoch_retired}] /
    [err_epoch_ahead], and the hint a client holds is only ever valid for
    the epoch stamped inside it. The [Welcome] mode tag (present since
    v2) is what tells the client which verb family the session speaks. *)

type client_msg =
  | Hello of { version : int; modes : Zltp_mode.t list }
  | Pir_query of { qid : int; epoch : int; dpf_key : string }
  | Pir_batch of { qid : int; epoch : int; dpf_keys : string list }
  | Keyword_query of { qid : int; epoch : int; dpf_key0 : string; dpf_key1 : string }
      (** one DPF key share per cuckoo candidate bucket (salts 0/1 of the
          Welcome [hash_key]); always two, even when candidates coincide *)
  | Enclave_get of { qid : int; key : string }
  | Spir_hint_req of { qid : int; epoch : int }
      (** fetch the per-epoch public SPIR hint ([Single] mode only) *)
  | Spir_query of { qid : int; epoch : int; query : string }
      (** the serialized LWE-masked selection vector ({!Lw_pir.Spir}) *)
  | Health of { qid : int }
  | Sync of { qid : int }  (** ask for the replica's current/oldest epoch *)
  | Bye

type server_msg =
  | Welcome of {
      version : int;
      mode : Zltp_mode.t;
      domain_bits : int;
      blob_size : int;
      hash_key : string; (** keyword→index SipHash key (public) *)
      server_id : string;
      epoch : int; (** the replica's current epoch at handshake time *)
    }
  | Answer of { qid : int; epoch : int; share : string }
  | Batch_answer of { qid : int; epoch : int; shares : string list }
  | Keyword_answer of { qid : int; epoch : int; share0 : string; share1 : string }
      (** one share per candidate probe, same order as the query's keys *)
  | Enclave_answer of { qid : int; value : string option }
  | Spir_hint of { qid : int; epoch : int; hint : string }
  | Spir_answer of { qid : int; epoch : int; answer : string }
  | Health_reply of { qid : int; shards_total : int; shards_down : int; epoch : int }
  | Sync_reply of { qid : int; epoch : int; oldest : int }
      (** current and oldest still-answerable epochs *)
  | Err of { qid : int; code : int; message : string }
      (** [qid] 0 when the error is not about a specific query *)

val protocol_version : int

val reply_qid : server_msg -> int option
(** The correlation id a reply carries; [None] for [Welcome]. *)

val request_qid : client_msg -> int option

(** Error codes carried by [Err]. *)

val err_not_negotiated : int
val err_bad_request : int
val err_wrong_mode : int
val err_internal : int

val err_degraded : int
(** The backend is partially down (e.g. a data shard unreachable) and the
    answer would be wrong; the client should fail over to a replica. *)

val err_epoch_retired : int
(** The queried epoch has been retired here; re-sync and retry at a
    current epoch. *)

val err_epoch_ahead : int
(** The queried epoch has not been published here yet (this replica is
    behind); re-sync, and prefer the other replica. *)

val trailer_size : int
(** Every encoded message ends in a [trailer_size]-byte CRC-32 over its
    body — a stand-in for the record MAC of the TLS channel ZLTP rides in.
    Decoding rejects a failed check as a structured error, so in-flight
    corruption becomes a clean retry, never silently wrong bytes. *)

val encode_client : client_msg -> string
val decode_client : string -> (client_msg, string) result
val encode_server : server_msg -> string
val decode_server : string -> (server_msg, string) result
