type policy = {
  attempts : int;
  base_backoff_s : float;
  max_backoff_s : float;
  deadline_s : float;
}

let default_policy =
  { attempts = 4; base_backoff_s = 0.05; max_backoff_s = 1.0; deadline_s = 30.0 }

type replica = { name : string; dial : unit -> (Lw_net.Endpoint.t, string) result }

let replica ~name dial = { name; dial }

(* A pre-established endpoint as a replica: usable for exactly one dial.
   If its connection later fails there is nothing to re-dial, so the
   replica counts as permanently down — the legacy [connect] behaviour. *)
let of_endpoint ~name ep =
  let used = ref false in
  {
    name;
    dial =
      (fun () ->
        if !used then Error "static endpoint already consumed"
        else begin
          used := true;
          Ok ep
        end);
  }

type params = {
  mode : Zltp_mode.t;
  domain_bits : int;
  blob_size : int;
  hash_key : string;
}

type session = { ep : Lw_net.Endpoint.t; replica_name : string; mutable epoch : int }

type role = {
  replicas : replica array;
  mutable cursor : int; (* currently preferred replica *)
  mutable session : session option;
}

type t = {
  roles : role array;
  prefer : Zltp_mode.t list;
  rng : Lw_crypto.Drbg.t;
  policy : policy;
  clock : Lw_obs.Clock.t;
  mutable params : params option;
  mutable keymap : Lw_pir.Keymap.t option;
  (* the two cuckoo candidate hashes (salts 0/1 of the Welcome hash_key)
     a keyword GET probes — derived once at handshake *)
  mutable kw_maps : (Lw_pir.Keymap.t * Lw_pir.Keymap.t) option;
  mutable next_qid : int;
  mutable queries : int;
  mutable retries : int;
  mutable failovers : int;
  (* epoch the next PIR query names; pinned for the whole of a page visit
     ([begin_visit]/[end_visit]) so one page never mixes epochs *)
  mutable epoch : int option;
  mutable visit : bool;
  mutable resync_needed : bool;
  mutable resyncs : int;
  (* single-server PIR: decoded per-epoch public hints. The ONLY client
     state the mode keeps, and it is epoch-keyed public data any client
     could re-fetch — dropped wholesale on re-sync, so a client that
     fell behind holds nothing stale. *)
  mutable spir_hints : (int * Lw_pir.Spir.hint) list;
}

let spir_hint_keep = 4

let params_exn t =
  match t.params with Some p -> p | None -> invalid_arg "Zltp_client: not connected"

let mode t = (params_exn t).mode
let blob_size t = (params_exn t).blob_size
let domain_bits t = (params_exn t).domain_bits
let queries_sent t = t.queries
let retries t = t.retries
let failovers t = t.failovers
let epoch_resyncs t = t.resyncs
let current_epoch t = t.epoch

(* Page-visit epoch pinning: every fetch of one page (document, then
   subresources) names the same epoch, so a page can neither mix record
   versions nor — the side channel — have a mid-visit publisher update
   make its fetch pattern diverge across the two servers. *)
let begin_visit t =
  t.visit <- true;
  t.epoch <- None

let end_visit t =
  t.visit <- false;
  t.epoch <- None

(* qids are plain session-local sequence numbers: public metadata, never
   derived from request contents. 0 is reserved for "no specific query". *)
let fresh_qid t =
  let q = t.next_qid in
  t.next_qid <- (if q >= 0xFFFFFFFF then 1 else q + 1);
  q

(* Operation failures split into the two classes the retry loop cares
   about: [`Transient] (the network or this replica misbehaved — worth a
   fresh attempt, likely after failing over) and [`Fatal] (the request
   itself is unacceptable; retrying is useless). *)
let transient e = Error (`Transient e)
let fatal e = Error (`Fatal e)

let send_msg ep msg =
  match ep.Lw_net.Endpoint.send (Zltp_wire.encode_client msg) with
  | () -> Ok ()
  | exception Lw_net.Endpoint.Closed -> transient "connection closed on send"
  | exception Lw_net.Endpoint.Timeout -> transient "send timed out"

(* Receive the reply correlated with [qid], skipping a bounded number of
   stale replies (late or duplicated answers to earlier attempts that are
   still sitting in the pipe). Without the qid check a duplicated reply
   would be XOR-combined into silently wrong bytes. *)
let recv_matching ep ~qid =
  let rec go skipped =
    if skipped > 8 then transient "too many stale replies"
    else
      (* deadline enforced by the transport (SO_RCVTIMEO / fault-schedule
         virtual deadline), surfaced as Endpoint.Timeout below *)
      match Zltp_wire.decode_server (ep.Lw_net.Endpoint.recv () (* lw-lint: allow unbounded-wait *)) with
      | Error e -> transient (Printf.sprintf "undecodable server reply: %s" e)
      | exception Lw_net.Endpoint.Closed -> transient "connection closed"
      | exception Lw_net.Endpoint.Timeout -> transient "receive timed out"
      | Ok reply -> (
          match Zltp_wire.reply_qid reply with
          | Some q when q = qid -> Ok reply
          | Some 0 -> (
              (* session-level error: about us, not a stale query *)
              match reply with Zltp_wire.Err _ -> Ok reply | _ -> go (skipped + 1))
          | Some _ -> go (skipped + 1)
          | None -> go (skipped + 1))
  in
  go 0

(* ---- dialing ---- *)

(* Returns the replica's announced epoch on success. The epoch is
   deliberately NOT part of the parameter-agreement check: replicas of a
   live universe legitimately sit at different epochs for a while — the
   per-query epoch match (and re-sync) handles that, not the handshake. *)
let check_params t (w : Zltp_wire.server_msg) =
  match w with
  | Zltp_wire.Welcome { mode; domain_bits; blob_size; hash_key; epoch; _ } -> (
      match t.params with
      | None ->
          t.params <- Some { mode; domain_bits; blob_size; hash_key };
          (* both PIR flavours address by index, so both need the
             key→index map; the two keyword candidate hashes are only
             probed by the two-server keyword verb *)
          if mode = Zltp_mode.Pir2 || mode = Zltp_mode.Single then begin
            let base = Lw_pir.Keymap.create ~hash_key ~domain_bits in
            t.keymap <- Some base;
            if mode = Zltp_mode.Pir2 then
              t.kw_maps <-
                Some (Lw_pir.Keymap.derive base ~salt:0, Lw_pir.Keymap.derive base ~salt:1)
          end;
          Ok epoch
      | Some p ->
          if
            p.mode = mode && p.domain_bits = domain_bits && p.blob_size = blob_size
            && String.equal p.hash_key hash_key
          then Ok epoch
          else Error "replica disagrees on session parameters")
  | _ -> Error "protocol violation: expected Welcome"

(* Dial one replica: Health probe, then Hello. The probe is sent to every
   replica we try — healthy or not — so the dial trace is uniform and a
   network observer learns nothing from which replica we settled on beyond
   what the (public) replica health already reveals. *)
let dial_replica t (r : replica) =
  match r.dial () with
  | Error e -> Error e
  | Ok ep -> (
      let give_up e =
        ep.Lw_net.Endpoint.close ();
        Error e
      in
      let qid = fresh_qid t in
      match send_msg ep (Zltp_wire.Health { qid }) with
      | Error (`Transient e | `Fatal e) -> give_up e
      | Ok () -> (
          match recv_matching ep ~qid with
          | Error (`Transient e | `Fatal e) -> give_up e
          | Ok (Zltp_wire.Health_reply { shards_down; _ }) when shards_down > 0 ->
              give_up (Printf.sprintf "replica degraded: %d shard(s) down" shards_down)
          | Ok (Zltp_wire.Err { message; _ }) -> give_up ("health probe refused: " ^ message)
          | Ok (Zltp_wire.Health_reply _) -> (
              match
                send_msg ep
                  (Zltp_wire.Hello { version = Zltp_wire.protocol_version; modes = t.prefer })
              with
              | Error (`Transient e | `Fatal e) -> give_up e
              | Ok () -> (
                  (* transport-enforced deadline, as in recv_matching *)
                  match
                    Zltp_wire.decode_server
                      (ep.Lw_net.Endpoint.recv () (* lw-lint: allow unbounded-wait *))
                  with
                  | exception Lw_net.Endpoint.Closed -> give_up "connection closed"
                  | exception Lw_net.Endpoint.Timeout -> give_up "handshake timed out"
                  | Error e -> give_up ("undecodable server reply: " ^ e)
                  | Ok (Zltp_wire.Err { message; _ }) -> give_up ("server refused: " ^ message)
                  | Ok w -> (
                      match check_params t w with
                      | Ok epoch -> Ok { ep; replica_name = r.name; epoch }
                      | Error e -> give_up e)))
          | Ok _ -> give_up "protocol violation: expected Health_reply"))

(* Current session for a role, dialing if needed; tries every replica
   once, starting from the preferred cursor. *)
let role_session t role =
  match role.session with
  | Some s -> Ok s
  | None ->
      let n = Array.length role.replicas in
      let rec try_from k errs =
        if k >= n then
          Error
            (Printf.sprintf "all replicas failed (%s)" (String.concat "; " (List.rev errs)))
        else begin
          let idx = (role.cursor + k) mod n in
          let r = role.replicas.(idx) in
          match dial_replica t r with
          | Ok s ->
              role.cursor <- idx;
              role.session <- Some s;
              Ok s
          | Error e -> try_from (k + 1) ((r.name ^ ": " ^ e) :: errs)
        end
      in
      try_from 0 []

(* Registry mirrors of the per-client telemetry fields, so retry storms
   and failovers show up in a process [--metrics] dump across every
   client instance. *)
let m_queries = Lw_obs.Metrics.counter "zltp.client.queries"
let m_retries = Lw_obs.Metrics.counter "zltp.client.retries"
let m_failovers = Lw_obs.Metrics.counter "zltp.client.failovers"
let m_resyncs = Lw_obs.Metrics.counter "zltp.client.epoch_resyncs"
let m_backoff = Lw_obs.Metrics.histogram "zltp.client.backoff_seconds"

(* Tear down a role's connection after a failure and point its cursor at
   the next replica, so the re-dial inside the next attempt fails over. *)
let fail_role t role =
  (match role.session with
  | Some s -> s.ep.Lw_net.Endpoint.close ()
  | None -> ());
  role.session <- None;
  let n = Array.length role.replicas in
  if n > 1 then begin
    role.cursor <- (role.cursor + 1) mod n;
    t.failovers <- t.failovers + 1;
    Lw_obs.Metrics.incr m_failovers
  end

(* ---- retry loop ---- *)

let backoff_duration t ~attempt =
  let b = t.policy.base_backoff_s *. (2. ** float_of_int attempt) in
  let b = Float.min b t.policy.max_backoff_s in
  (* jitter in [b/2, b]: decorrelates retry storms across clients *)
  b *. (0.5 +. 0.5 *. (float_of_int (Lw_crypto.Drbg.uniform_int t.rng 1024) /. 1024.))

let with_retry t op =
  let start = Lw_obs.Clock.now t.clock in
  let rec go attempt =
    match op () with
    | Ok v -> Ok v
    | Error (`Fatal e) -> Error e
    | Error (`Transient e) ->
        if attempt + 1 >= t.policy.attempts then
          Error (Printf.sprintf "%s (after %d attempts)" e (attempt + 1))
        else begin
          let pause = backoff_duration t ~attempt in
          let elapsed = Lw_obs.Clock.now t.clock -. start in
          if elapsed +. pause >= t.policy.deadline_s then
            Error (Printf.sprintf "%s (deadline exceeded)" e)
          else begin
            t.retries <- t.retries + 1;
            Lw_obs.Metrics.incr m_retries;
            Lw_obs.Metrics.observe m_backoff pause;
            Lw_obs.Clock.sleep t.clock pause;
            go (attempt + 1)
          end
        end
  in
  go 0

(* ---- connection ---- *)

let connect_replicated ?(prefer = [ Zltp_mode.Pir2; Zltp_mode.Enclave; Zltp_mode.Single ]) ?rng
    ?(policy = default_policy) ?clock role_replicas =
  let rng = match rng with Some r -> r | None -> Lw_crypto.Drbg.system () in
  let clock = match clock with Some c -> c | None -> Lw_obs.Clock.real () in
  if policy.attempts < 1 then Error "policy.attempts must be >= 1"
  else if List.exists (fun rs -> rs = []) role_replicas then
    Error "every role needs at least one replica"
  else begin
    let roles =
      Array.of_list
        (List.map
           (fun rs -> { replicas = Array.of_list rs; cursor = 0; session = None })
           role_replicas)
    in
    let t =
      {
        roles;
        prefer;
        rng;
        policy;
        clock;
        params = None;
        keymap = None;
        kw_maps = None;
        next_qid = 1;
        queries = 0;
        retries = 0;
        failovers = 0;
        epoch = None;
        visit = false;
        resync_needed = false;
        resyncs = 0;
        spir_hints = [];
      }
    in
    let rec dial_all i =
      if i >= Array.length t.roles then Ok ()
      else
        match role_session t t.roles.(i) with
        | Ok _ -> dial_all (i + 1)
        | Error e -> Error (Printf.sprintf "role %d: %s" i e)
    in
    match dial_all 0 with
    | Error e -> Error e
    | Ok () -> (
        let p = params_exn t in
        match (p.mode, Array.length t.roles) with
        | Zltp_mode.Pir2, 2 -> Ok t
        | Zltp_mode.Pir2, n ->
            Error
              (Printf.sprintf "PIR mode requires exactly 2 non-colluding servers, got %d" n)
        | Zltp_mode.Enclave, 1 -> Ok t
        | Zltp_mode.Enclave, n ->
            Error (Printf.sprintf "enclave mode uses exactly 1 server, got %d" n)
        | Zltp_mode.Single, 1 -> Ok t
        | Zltp_mode.Single, n ->
            Error (Printf.sprintf "single-server PIR mode uses exactly 1 server, got %d" n))
  end

let connect ?prefer ?rng ?policy ?clock endpoints =
  match endpoints with
  | [] -> Error "no endpoints given"
  | _ ->
      connect_replicated ?prefer ?rng ?policy ?clock
        (List.mapi
           (fun i ep -> [ of_endpoint ~name:(Printf.sprintf "static-%d" i) ep ])
           endpoints)

(* ---- private-GET (retry privacy: see the .mli) ---- *)

let role_err t role = function
  | Error (`Transient _ as e) ->
      fail_role t role;
      Error e
  | (Error (`Fatal _) | Ok _) as r -> r

(* ---- epoch re-sync ----

   An epoch error (or a reply tagged with an unexpected epoch) means the
   client's idea of the common epoch is stale — not that the connection
   is broken. The reaction is a [Sync] round on both roles to re-learn
   each replica's published epoch; if they diverge, the role on the
   lower (stale) epoch is failed over, so the retry can land on an
   up-to-date replica of that role. The stale attempt itself is
   [`Transient], riding the existing retry/backoff loop. *)

let note_epoch_trouble t =
  t.epoch <- None;
  t.resync_needed <- true

let sync_session t role (s : session) =
  let qid = fresh_qid t in
  match send_msg s.ep (Zltp_wire.Sync { qid }) with
  | Error _ ->
      fail_role t role;
      None
  | Ok () -> (
      match recv_matching s.ep ~qid with
      | Ok (Zltp_wire.Sync_reply { epoch; _ }) ->
          s.epoch <- epoch;
          Some epoch
      | Ok _ | Error _ ->
          fail_role t role;
          None)

let resync t =
  t.resync_needed <- false;
  t.epoch <- None;
  (* single-server PIR keeps no state past its per-epoch hints, and a
     re-sync is exactly the "my epoch view is stale" signal — drop them
     all; the next query re-fetches the (public) hint for whatever epoch
     it lands on *)
  t.spir_hints <- [];
  t.resyncs <- t.resyncs + 1;
  Lw_obs.Metrics.incr m_resyncs;
  let probe role = Option.bind role.session (fun s -> sync_session t role s) in
  match t.roles with
  | [| r0; r1 |] -> (
      (* if the replicas diverge, fail over the stale side so the retry
         can land on an up-to-date replica of that role *)
      match (probe r0, probe r1) with
      | Some a, Some b when a < b -> fail_role t r0
      | Some a, Some b when b < a -> fail_role t r1
      | _ -> ())
  | roles -> Array.iter (fun r -> ignore (probe r)) roles

let epoch_error code =
  code = Zltp_wire.err_epoch_retired || code = Zltp_wire.err_epoch_ahead

(* [err_bad_request] covers both a genuinely malformed request (a client
   bug) and a frame corrupted or desynced in flight — the CRC trailer
   turns the latter into a structured decode failure on the server, and
   the two are indistinguishable from here. The connection is suspect
   either way: fail the role so a replicated session re-dials, and let
   the bounded retry loop decide whether to give up. *)
let conn_scoped_error code =
  code = Zltp_wire.err_degraded || code = Zltp_wire.err_internal
  || code = Zltp_wire.err_bad_request

let count_queries t n =
  t.queries <- t.queries + n;
  Lw_obs.Metrics.add m_queries n

let ( let* ) = Result.bind

(* What a request expects back, typed by the payload [check_reply] returns. *)
type _ reply =
  | Answer : string list reply
  | Keyword_answer : string list reply
  | Batch_answer : int -> string list reply
  | Spir_hint : string reply
  | Spir_answer : string reply
  | Enclave_answer : string option reply

(* The one reply check. Epoch trouble, a reply from another epoch included,
   re-syncs without failing the role (see above). PIR shares must come in the
   number asked for, each exactly blob_size bytes: one short share would make
   the XOR raise, two would combine into wrong bytes. *)
let check_reply (type a) t role ~epoch (expected : a reply) reply : (a, _) result =
  let stale message =
    note_epoch_trouble t;
    transient message
  in
  let at e v =
    if e = epoch then Ok v else stale (Printf.sprintf "reply epoch %d, queried %d" e epoch)
  in
  let shares e n ss =
    let wrong s = String.length s <> blob_size t in
    if e = epoch && (List.length ss <> n || List.exists wrong ss) then
      role_err t role (transient "share count or length mismatch")
    else at e ss
  in
  match reply with
  | Error e -> role_err t role (Error e)
  | Ok (Zltp_wire.Err { code; message; _ }) ->
      if epoch_error code then stale message
      else if conn_scoped_error code then role_err t role (transient message)
      else fatal message
  | Ok msg -> (
      match (expected, msg) with
      | Answer, Zltp_wire.Answer { epoch = e; share; _ } -> shares e 1 [ share ]
      | Keyword_answer, Zltp_wire.Keyword_answer { epoch = e; share0; share1; _ } ->
          shares e 2 [ share0; share1 ]
      | Batch_answer n, Zltp_wire.Batch_answer { epoch = e; shares = ss; _ } -> shares e n ss
      | Spir_hint, Zltp_wire.Spir_hint { epoch = e; hint; _ } -> at e hint
      | Spir_answer, Zltp_wire.Spir_answer { epoch = e; answer; _ } -> at e answer
      | Enclave_answer, Zltp_wire.Enclave_answer { value; _ } -> Ok value
      | _ -> role_err t role (transient "protocol violation: unexpected reply"))

let request t role (s : session) ~qid ~epoch msg expected =
  let* () = role_err t role (send_msg s.ep msg) in
  check_reply t role ~epoch expected (recv_matching s.ep ~qid)

(* The fatal error of the two roles' results if there is one, else the first. *)
let first_error a b =
  match (a, b) with
  | Error (`Fatal e), _ | _, Error (`Fatal e) -> fatal e
  | Error e, _ | _, Error e -> Error e
  | Ok _, Ok _ -> transient "internal: no error found"

let map_result f xs =
  List.fold_left (fun acc x -> let* vs = acc in let* v = f x in Ok (v :: vs)) (Ok []) xs
  |> Result.map List.rev

(* The epoch the next query names: the one a visit (or an earlier query of
   this operation) pinned, else the highest every session can serve — their
   minimum, since a freshly sealed epoch reaches replicas at different times. *)
let query_epoch t sessions =
  if t.epoch = None then
    t.epoch <- Some (List.fold_left (fun e (s : session) -> min e s.epoch) max_int sessions);
  Option.get t.epoch

(* Outside a visit each operation re-learns the freshest common epoch;
   inside one the first query pins it until [end_visit]. *)
let fresh_op_epoch t = if not t.visit then t.epoch <- None

let pir_sessions t =
  match t.roles with
  | [| r0; r1 |] -> (
      match (role_session t r0, role_session t r1) with
      | Ok s0, Ok s1 -> Ok ((r0, s0), (r1, s1))
      | Error e, _ | _, Error e -> transient e)
  | _ -> fatal "not a PIR session"

(* The two-server request: [Pir_query], [Keyword_query] (a keyword GET's two
   candidates) or [Pir_batch]. A keyword batch is a [Pir_batch] of candidate
   pairs that draws each pair's second DPF key pair first, as it always has. *)
type frame = Query | Keyword | Batch | Keyword_batch

let rec swap_pairs = function a :: b :: rest -> b :: a :: swap_pairs rest | l -> l

(* The one two-server exchange: a fresh DPF pair per index, in list order,
   and one frame per role, both sent before either reply is read so the
   per-server trace shape is independent of which server is slow or failing. *)
let pir2_attempt t frame indices =
  if t.resync_needed then resync t;
  let* (role0, s0), (role1, s1) = pir_sessions t in
  let qid = fresh_qid t in
  let epoch = query_epoch t [ s0; s1 ] in
  let gen alpha = Lw_dpf.Dpf.gen ~domain_bits:(domain_bits t) ~alpha t.rng in
  let pairs =
    if frame = Keyword_batch then swap_pairs (List.map gen (swap_pairs indices))
    else List.map gen indices
  in
  let msg which =
    let keys = List.map (fun p -> Lw_dpf.Dpf.serialize (which p)) pairs in
    match frame with
    | Query -> Zltp_wire.Pir_query { qid; epoch; dpf_key = List.hd keys }
    | Keyword ->
        Zltp_wire.Keyword_query { qid; epoch; dpf_key0 = List.hd keys; dpf_key1 = List.nth keys 1 }
    | Batch | Keyword_batch -> Zltp_wire.Pir_batch { qid; epoch; dpf_keys = keys }
  in
  (* a keyword lookup counts as one query, however many candidates *)
  let n = List.length indices in
  let expected, queries =
    match frame with
    | Query -> (Answer, 1)
    | Keyword -> (Keyword_answer, 1)
    | Batch -> (Batch_answer n, n)
    | Keyword_batch -> (Batch_answer n, n / 2)
  in
  let sent0 = role_err t role0 (send_msg s0.ep (msg fst)) in
  let sent1 = role_err t role1 (send_msg s1.ep (msg snd)) in
  match (sent0, sent1) with
  | Ok (), Ok () -> (
      let r0 = check_reply t role0 ~epoch expected (recv_matching s0.ep ~qid) in
      let r1 = check_reply t role1 ~epoch expected (recv_matching s1.ep ~qid) in
      match (r0, r1) with
      | Ok shares0, Ok shares1 ->
          (* both replies verified to carry the queried epoch, so the XOR
             below is over bit-identical databases by construction *)
          count_queries t queries;
          Ok (List.map2 (fun resp0 resp1 -> Lw_pir.Client.combine ~resp0 ~resp1) shares0 shares1)
      | _ -> first_error r0 r1)
  | _ -> first_error sent0 sent1

let sole_session t what =
  match t.roles with
  | [| role |] -> ( match role_session t role with Ok s -> Ok (role, s) | Error e -> transient e)
  | _ -> fatal (Printf.sprintf "not %s session" what)

(* The one single-server attempt: the epoch's public hint, then per index one
   freshly masked query — uniform to the server under LWE, answered by a scan
   of every bucket in index order ([Trace_check.check_spir_scan]) — and one
   recovered bucket. A retry re-masks with a fresh secret and qid, like a
   regenerated DPF pair. There is no batch verb, but one attempt names ONE
   epoch, so a mid-batch seal cannot mix record versions. *)
let single_attempt t indices =
  if t.resync_needed then resync t;
  let* role, s = sole_session t "a single-server" in
  let epoch = query_epoch t [ s ] in
  let* hint =
    match List.assoc_opt epoch t.spir_hints with
    | Some h -> Ok h
    | None -> (
        let qid = fresh_qid t in
        let msg = Zltp_wire.Spir_hint_req { qid; epoch } in
        let* hint = request t role s ~qid ~epoch msg Spir_hint in
        match Lw_pir.Spir.decode_hint hint with
        | Error e -> role_err t role (transient ("undecodable hint: " ^ e))
        | Ok h when Lw_pir.Spir.hint_epoch h <> epoch ->
            role_err t role (transient "hint stamped with wrong epoch")
        | Ok h ->
            let older = List.remove_assoc epoch t.spir_hints in
            t.spir_hints <- (epoch, h) :: List.filteri (fun i _ -> i < spir_hint_keep - 1) older;
            Ok h)
  in
  let query index =
    try
      let secret, query = Lw_pir.Spir.Client.query hint ~domain_bits:(domain_bits t) ~index t.rng in
      let qid = fresh_qid t in
      let* () = role_err t role (send_msg s.ep (Zltp_wire.Spir_query { qid; epoch; query })) in
      let* answer = check_reply t role ~epoch Spir_answer (recv_matching s.ep ~qid) in
      match Lw_pir.Spir.Client.recover hint secret answer with
      | Error e -> role_err t role (transient ("unrecoverable answer: " ^ e))
      | Ok bucket ->
          count_queries t 1;
          Ok bucket
    with Invalid_argument e -> fatal e
  in
  map_result query indices

let enclave_attempt t key =
  let* role, s = sole_session t "an enclave" in
  let qid = fresh_qid t in
  (* enclave replies name no epoch; [s.epoch] only fills the slot *)
  let msg = Zltp_wire.Enclave_get { qid; key } in
  let* value = request t role s ~qid ~epoch:s.epoch msg Enclave_answer in
  count_queries t 1;
  Ok value

(* Every index-addressed fetch in either PIR mode: one attempt, retried
   as a whole. Single-server mode ignores [frame]. *)
let fetch t frame indices =
  fresh_op_epoch t;
  with_retry t (fun () ->
      if mode t = Zltp_mode.Pir2 then pir2_attempt t frame indices else single_attempt t indices)

let get_raw_index t index =
  if mode t = Zltp_mode.Enclave then Error "raw index fetch is PIR-only"
  else if index < 0 || index >= 1 lsl domain_bits t then Error "index out of domain"
  else Result.map List.hd (fetch t Query [ index ])

let fetch_keys t frame keys =
  let keymap = Option.get t.keymap in
  fetch t frame (List.map (Lw_pir.Keymap.index_of_key keymap) keys)
  |> Result.map (List.map2 (fun key bucket -> Lw_pir.Record.decode_for_key ~key bucket) keys)

let get t key =
  if mode t = Zltp_mode.Enclave then with_retry t (fun () -> enclave_attempt t key)
  else Result.map List.hd (fetch_keys t Query [ key ])

(* enclave mode needs no server-side batch primitive: polylog per-op cost *)
let get_batch t keys =
  if mode t = Zltp_mode.Enclave then map_result (get t) keys else fetch_keys t Batch keys

let keyword_candidates t key =
  match t.kw_maps with
  | Some (h0, h1) -> (Lw_pir.Keymap.index_of_key h0 key, Lw_pir.Keymap.index_of_key h1 key)
  | None -> invalid_arg "Zltp_client: not connected"

(* k keyword lookups as one exchange over their 2k cuckoo candidates, re-paired
   per key on decode: one key rides a [Keyword_query], several a [Pir_batch] —
   how a cluster retrieval fetches its members in one round trip and scan. *)
let keyword_fetch t frame keys =
  match mode t with
  | Zltp_mode.Enclave -> Error "keyword GET is PIR-only; enclave mode fetches by key directly"
  | Zltp_mode.Single ->
      Error "keyword GET is two-server PIR-only; single-server mode fetches by key via get"
  | Zltp_mode.Pir2 ->
      let pair key = match keyword_candidates t key with i0, i1 -> [ i0; i1 ] in
      let rec decode keys buckets =
        match (keys, buckets) with
        | key :: keys, b0 :: b1 :: buckets ->
            let value = Lw_pir.Record.decode_for_key ~key in
            (match value b0 with None -> value b1 | found -> found) :: decode keys buckets
        | _ -> []
      in
      Result.map (decode keys) (fetch t frame (List.concat_map pair keys))

let keyword_get t key = Result.map List.hd (keyword_fetch t Keyword [ key ])
let keyword_get_batch t keys = keyword_fetch t Keyword_batch keys

let close t =
  Array.iter
    (fun role ->
      (match role.session with
      | Some s ->
          (try s.ep.Lw_net.Endpoint.send (Zltp_wire.encode_client Zltp_wire.Bye)
           with Lw_net.Endpoint.Closed | Lw_net.Endpoint.Timeout -> ());
          s.ep.Lw_net.Endpoint.close ()
      | None -> ());
      role.session <- None)
    t.roles

let current_replicas t =
  Array.to_list
    (Array.map
       (fun role -> match role.session with Some s -> Some s.replica_name | None -> None)
       t.roles)
