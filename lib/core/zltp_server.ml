let log_src = Logs.Src.create "lightweb.zltp" ~doc:"ZLTP server events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  backend : Zltp_backend.t;
  blob_size : int;
  hash_key : string;
  server_id : string;
}

let default_hash_key = String.sub (Lw_crypto.Sha256.digest "lw-pir-store-default") 0 16

let create ?(server_id = "zltp-server") ?(hash_key = default_hash_key) ~blob_size backend =
  if blob_size < 1 then invalid_arg "Zltp_server.create: blob_size must be positive";
  { backend; blob_size; hash_key; server_id }

let backend t = t.backend
let blob_size t = t.blob_size

(* Everything below goes through the BACKEND signature: this file knows
   the verb set, never which backend answers it. *)

let modes t =
  let (module B : Zltp_backend.S) = t.backend in
  B.modes

let domain_bits t =
  let (module B : Zltp_backend.S) = t.backend in
  B.domain_bits

let health t =
  let (module B : Zltp_backend.S) = t.backend in
  B.health ()

let current_epoch t =
  let (module B : Zltp_backend.S) = t.backend in
  B.current_epoch ()

let set_advertised_epoch t e =
  let (module B : Zltp_backend.S) = t.backend in
  B.set_advertised_epoch e

let oldest_epoch t =
  let (module B : Zltp_backend.S) = t.backend in
  B.oldest_epoch ()

type conn = { server : t; mutable mode : Zltp_mode.t option }

let conn server = { server; mode = None }

let err ?(qid = 0) code message = Some (Zltp_wire.Err { qid; code; message })

let deserialize_key t dpf_key =
  match Lw_dpf.Dpf.deserialize dpf_key with
  | Error e -> Error (Zltp_wire.err_bad_request, "bad DPF key: " ^ Lw_dpf.Dpf.decode_error_message e)
  | Ok k ->
      if Lw_dpf.Dpf.domain_bits k <> domain_bits t then
        Error (Zltp_wire.err_bad_request, "domain mismatch")
      else Ok k

(* Answer strictly against the queried epoch: pin it for the duration of
   the answer (so a concurrent seal cannot retire it mid-scan) and unpin
   on every exit path. What pinning means — store pin, shard epoch
   agreement, the degenerate epoch-0 check — is the backend's business.
   The unpin is by hand, not [Fun.protect], which would cost a request
   two more closures. *)
let with_pin (type v) (module B : Zltp_backend.S with type view = v) ~epoch f =
  match B.pin ~epoch with
  | Error _ as e -> e
  | Ok v -> (
      match f v with
      | r ->
          B.unpin v;
          r
      | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          B.unpin v;
          Printexc.raise_with_backtrace exn bt)

let answer_pir t ~epoch dpf_key =
  match deserialize_key t dpf_key with
  | Error _ as e -> e
  | Ok k ->
      let (module B : Zltp_backend.S) = t.backend in
      with_pin (module B) ~epoch (fun v -> B.answer v k)

(* A batch deserialises and validates every key before any evaluation, so
   a malformed key rejects the whole request rather than wasting a
   partial scan; the accepted keys then ride the backend's batch entry —
   the batch kernel's one streamed traversal of the data for the
   whole batch — instead of re-entering the single-query path per key. *)
let answer_pir_batch t ~epoch dpf_keys =
  let rec deserialize_all acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | key :: rest -> (
        match deserialize_key t key with
        | Ok k -> deserialize_all (k :: acc) rest
        | Error _ as e -> e)
  in
  match deserialize_all [] dpf_keys with
  | Error _ as e -> e
  | Ok keys ->
      let (module B : Zltp_backend.S) = t.backend in
      with_pin (module B) ~epoch (fun v ->
          match B.answer_batch v keys with
          | Ok shares -> Ok (Array.to_list shares)
          | Error _ as e -> e)

let answer_spir_hint t ~epoch =
  let (module B : Zltp_backend.S) = t.backend in
  with_pin (module B) ~epoch B.spir_hint

let answer_spir t ~epoch query =
  let (module B : Zltp_backend.S) = t.backend in
  with_pin (module B) ~epoch (fun v -> B.spir_answer v query)

let enclave_get t key =
  let (module B : Zltp_backend.S) = t.backend in
  B.enclave_get key

let wrong_session_mode mode =
  Printf.sprintf "session is in %s mode" (Zltp_mode.name mode)

(* Every verb's answer, once [handle] has checked the session's mode. *)
let dispatch c msg =
  let t = c.server in
  match msg with
  | Zltp_wire.Bye -> None
  | Zltp_wire.Health { qid } ->
      (* liveness probe: answerable before Hello, so a failing-over client
         can cheaply rank replicas without a full handshake *)
      let shards_total, shards_down = health t in
      Some (Zltp_wire.Health_reply { qid; shards_total; shards_down; epoch = current_epoch t })
  | Zltp_wire.Sync { qid } ->
      (* epoch probe: like Health, answerable before Hello, so a client
         recovering from an epoch error can re-learn both replicas'
         published range without re-handshaking *)
      Some (Zltp_wire.Sync_reply { qid; epoch = current_epoch t; oldest = oldest_epoch t })
  | Zltp_wire.Hello { version; modes = client_modes } ->
      if version <> Zltp_wire.protocol_version then
        err Zltp_wire.err_bad_request "unsupported protocol version"
      else begin
        match Zltp_mode.negotiate ~client:client_modes ~server:(modes t) with
        | None ->
            Log.info (fun m -> m "%s: hello with no common mode" t.server_id);
            err Zltp_wire.err_bad_request "no common mode of operation"
        | Some mode ->
            Log.debug (fun m -> m "%s: session negotiated %s" t.server_id (Zltp_mode.name mode));
            c.mode <- Some mode;
            Some
              (Zltp_wire.Welcome
                 {
                   version = Zltp_wire.protocol_version;
                   mode;
                   domain_bits = domain_bits t;
                   blob_size = t.blob_size;
                   hash_key = t.hash_key;
                   server_id = t.server_id;
                   epoch = current_epoch t;
                 })
      end
  | Zltp_wire.Pir_query { qid; epoch; dpf_key } -> (
      match answer_pir t ~epoch dpf_key with
      | Ok share ->
          (* note: nothing about the query is loggable beyond its
             existence — the server never has the request key *)
          Log.debug (fun m -> m "%s: private-GET answered" t.server_id);
          Some (Zltp_wire.Answer { qid; epoch; share })
      | Error (code, e) ->
          Log.info (fun m -> m "%s: rejected query: %s" t.server_id e);
          err ~qid code e)
  | Zltp_wire.Pir_batch { qid; epoch; dpf_keys } -> (
      match answer_pir_batch t ~epoch dpf_keys with
      | Ok shares ->
          Log.debug (fun m ->
              m "%s: private-GET batch of %d answered" t.server_id (List.length shares));
          Some (Zltp_wire.Batch_answer { qid; epoch; shares })
      | Error (code, e) ->
          Log.info (fun m -> m "%s: rejected batch: %s" t.server_id e);
          err ~qid code e)
  | Zltp_wire.Keyword_query { qid; epoch; dpf_key0; dpf_key1 } -> (
      (* keyword GET = both cuckoo candidate probes as one width-2 entry
         into the batch scan kernel (a two-lane call): one
         streamed scan pass, one round trip, and the same epoch pinning /
         degraded refusal as any other PIR batch *)
      match answer_pir_batch t ~epoch [ dpf_key0; dpf_key1 ] with
      | Ok [ share0; share1 ] ->
          Log.debug (fun m -> m "%s: keyword-GET answered" t.server_id);
          Some (Zltp_wire.Keyword_answer { qid; epoch; share0; share1 })
      | Ok _ -> err ~qid Zltp_wire.err_internal "keyword answer arity"
      | Error (code, e) ->
          Log.info (fun m -> m "%s: rejected keyword query: %s" t.server_id e);
          err ~qid code e)
  | Zltp_wire.Spir_hint_req { qid; epoch } -> (
      match answer_spir_hint t ~epoch with
      | Ok hint ->
          Log.debug (fun m -> m "%s: SPIR hint for epoch %d served" t.server_id epoch);
          Some (Zltp_wire.Spir_hint { qid; epoch; hint })
      | Error (code, e) ->
          Log.info (fun m -> m "%s: rejected hint request: %s" t.server_id e);
          err ~qid code e)
  | Zltp_wire.Spir_query { qid; epoch; query } -> (
      match answer_spir t ~epoch query with
      | Ok answer ->
          Log.debug (fun m -> m "%s: SPIR private-GET answered" t.server_id);
          Some (Zltp_wire.Spir_answer { qid; epoch; answer })
      | Error (code, e) ->
          Log.info (fun m -> m "%s: rejected SPIR query: %s" t.server_id e);
          err ~qid code e)
  | Zltp_wire.Enclave_get { qid; key } -> (
      match enclave_get t key with
      | Ok value -> Some (Zltp_wire.Enclave_answer { qid; value })
      | Error (code, e) -> err ~qid code e)

(* A session speaks exactly one verb family after Hello: each verb names
   the mode it needs, and one guard answers a verb outside the session's
   mode with the structured not-negotiated or wrong-mode error. Hello,
   Bye and the Health/Sync probes need no mode. *)
let verb_mode = function
  | Zltp_wire.Pir_query _ | Zltp_wire.Pir_batch _ | Zltp_wire.Keyword_query _ ->
      Some Zltp_mode.Pir2
  | Zltp_wire.Spir_hint_req _ | Zltp_wire.Spir_query _ -> Some Zltp_mode.Single
  | Zltp_wire.Enclave_get _ -> Some Zltp_mode.Enclave
  | Zltp_wire.Hello _ | Zltp_wire.Bye | Zltp_wire.Health _ | Zltp_wire.Sync _ -> None

let handle c msg =
  match (verb_mode msg, c.mode) with
  | None, _ -> dispatch c msg
  | Some want, Some mode when mode = want -> dispatch c msg
  | Some _, mode -> (
      let qid = Option.value (Zltp_wire.request_qid msg) ~default:0 in
      match mode with
      | None -> err ~qid Zltp_wire.err_not_negotiated "hello first"
      | Some m -> err ~qid Zltp_wire.err_wrong_mode (wrong_session_mode m))

(* The request path must never let an exception escape and tear the whole
   connection (or, under a shared-process server, the process) down: any
   unexpected raise becomes a structured [Err] and the session survives.
   [Invalid_argument]/[Failure] from deep in a backend are internal bugs
   surfaced as err_internal, not protocol violations by the client. *)
let handle_frame c frame =
  match Zltp_wire.decode_client frame with
  | Error e ->
      Some
        (Zltp_wire.encode_server
           (Zltp_wire.Err { qid = 0; code = Zltp_wire.err_bad_request; message = e }))
  | Ok msg -> (
      let qid = Option.value (Zltp_wire.request_qid msg) ~default:0 in
      match handle c msg with
      | reply -> Option.map Zltp_wire.encode_server reply
      | exception exn ->
          let e = Printexc.to_string exn in
          Log.err (fun m -> m "%s: request failed internally: %s" c.server.server_id e);
          Some
            (Zltp_wire.encode_server
               (Zltp_wire.Err { qid; code = Zltp_wire.err_internal; message = "internal error" })))

let serve t ep =
  let c = conn t in
  let rec loop () =
    (* serving loop: blocking on the next request frame is the one place a
       server-side unbounded wait is the correct behaviour *)
    match ep.Lw_net.Endpoint.recv () (* lw-lint: allow unbounded-wait *) with
    | frame -> (
        match handle_frame c frame with
        | Some reply -> (
            match ep.Lw_net.Endpoint.send reply with
            | () -> loop ()
            | exception Lw_net.Endpoint.Closed -> ())
        | None -> ())
    | exception (Lw_net.Endpoint.Closed | Lw_net.Endpoint.Timeout) -> ()
  in
  loop ()

let endpoint t =
  let c = conn t in
  Lw_net.Endpoint.loopback (fun frame ->
      match handle_frame c frame with
      | Some reply -> reply
      | None ->
          Zltp_wire.encode_server
            (Zltp_wire.Err
               { qid = 0; code = Zltp_wire.err_bad_request; message = "connection closed" }))
