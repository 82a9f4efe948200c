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

(* ---- private-GET ----

   Each attempt generates a completely fresh DPF key pair (and a fresh
   qid), so a retried query is cryptographically indistinguishable from a
   new one: a server comparing a retry against the original learns nothing
   about whether they target the same index. Sends to both roles complete
   before either receive starts, keeping the per-server trace shape
   independent of which server is slow or failing. *)

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

let expect_share t role ~epoch = function
  | Ok (Zltp_wire.Answer { epoch = e; share; _ }) ->
      if e <> epoch then begin
        (* never XOR a share from the wrong epoch — not even with a
           matching qid: drop it and re-sync *)
        note_epoch_trouble t;
        transient (Printf.sprintf "answer epoch %d, queried %d" e epoch)
      end
      else Ok share
  | Ok (Zltp_wire.Err { code; message; _ }) ->
      if epoch_error code then begin
        (* the session is healthy, the epoch was just stale/early: no
           fail_role — re-sync decides which side (if any) to abandon *)
        note_epoch_trouble t;
        transient message
      end
      else if conn_scoped_error code then
        role_err t role (transient message)
      else fatal message
  | Ok _ -> role_err t role (transient "protocol violation: expected Answer")
  | Error _ as e -> role_err t role e

let first_error rs =
  let fatal_first =
    List.find_opt (function Error (`Fatal _) -> true | _ -> false) rs
  in
  match fatal_first with
  | Some (Error (`Fatal e)) -> fatal e
  | _ -> (
      match List.find_opt (function Error _ -> true | _ -> false) rs with
      | Some (Error (`Transient e)) -> transient e
      | _ -> transient "internal: no error found")

let pir_sessions t =
  match t.roles with
  | [| r0; r1 |] -> (
      match (role_session t r0, role_session t r1) with
      | Ok s0, Ok s1 -> Ok ((r0, s0), (r1, s1))
      | Error e, _ | _, Error e -> transient e)
  | _ -> fatal "not a PIR session"

(* The epoch the next query names: the pinned one if a visit (or an
   earlier query of this operation) pinned it, else the highest epoch
   both sessions can serve — their minimum, since a freshly sealed epoch
   reaches the replicas at different times. *)
let query_epoch t (s0 : session) (s1 : session) =
  match t.epoch with
  | Some e -> e
  | None ->
      let e = min s0.epoch s1.epoch in
      t.epoch <- Some e;
      e

let pir_attempt t index =
  if t.resync_needed then resync t;
  match pir_sessions t with
  | Error _ as e -> e
  | Ok ((role0, s0), (role1, s1)) -> (
      let qid = fresh_qid t in
      let epoch = query_epoch t s0 s1 in
      let key0, key1 =
        Lw_dpf.Dpf.gen ~domain_bits:(params_exn t).domain_bits ~alpha:index t.rng
      in
      let q k = Zltp_wire.Pir_query { qid; epoch; dpf_key = Lw_dpf.Dpf.serialize k } in
      let sent0 = role_err t role0 (send_msg s0.ep (q key0)) in
      let sent1 = role_err t role1 (send_msg s1.ep (q key1)) in
      match (sent0, sent1) with
      | Ok (), Ok () -> (
          let r0 = expect_share t role0 ~epoch (recv_matching s0.ep ~qid) in
          let r1 = expect_share t role1 ~epoch (recv_matching s1.ep ~qid) in
          match (r0, r1) with
          | Ok share0, Ok share1 ->
              (* both shares verified to carry the queried epoch, so the
                 XOR below is over bit-identical databases by construction *)
              t.queries <- t.queries + 1;
              Lw_obs.Metrics.incr m_queries;
              Ok (Lw_pir.Client.combine ~resp0:share0 ~resp1:share1)
          | _ -> first_error [ r0; r1 ])
      | _ -> first_error [ sent0; sent1 ])

(* Outside a visit each operation re-learns the freshest common epoch;
   inside one the first query pins it until [end_visit]. *)
let fresh_op_epoch t = if not t.visit then t.epoch <- None

let pir_fetch_index t index =
  fresh_op_epoch t;
  with_retry t (fun () -> pir_attempt t index)

(* ---- single-server private-GET ----

   One role, one server. The per-epoch public hint is fetched once and
   cached by epoch; every query then sends a freshly masked selection
   vector — under LWE the server's view is uniform whatever the index,
   and its answer scan walks every bucket in index order regardless
   ([Trace_check.check_spir_scan]). A retried query re-masks with a
   fresh secret and a fresh qid, so — like a regenerated DPF pair — a
   retry is cryptographically indistinguishable from a new query. *)

let single_role t =
  match t.roles with [| role |] -> Ok role | _ -> fatal "not a single-server session"

(* Epoch for the next query: the pinned one inside a visit, else the
   session's announced epoch (there is only one server to agree with). *)
let spir_query_epoch t (s : session) =
  match t.epoch with
  | Some e -> e
  | None ->
      t.epoch <- Some s.epoch;
      s.epoch

let cache_hint t ~epoch hint =
  t.spir_hints <-
    (epoch, hint)
    :: List.filteri (fun i _ -> i < spir_hint_keep - 1) (List.remove_assoc epoch t.spir_hints)

let spir_hint_for t role (s : session) ~epoch =
  match List.assoc_opt epoch t.spir_hints with
  | Some h -> Ok h
  | None -> (
      let qid = fresh_qid t in
      match role_err t role (send_msg s.ep (Zltp_wire.Spir_hint_req { qid; epoch })) with
      | Error _ as e -> e
      | Ok () -> (
          match recv_matching s.ep ~qid with
          | Ok (Zltp_wire.Spir_hint { epoch = e; hint; _ }) ->
              if e <> epoch then begin
                note_epoch_trouble t;
                transient (Printf.sprintf "hint epoch %d, requested %d" e epoch)
              end
              else (
                match Lw_pir.Spir.decode_hint hint with
                | Error e -> role_err t role (transient ("undecodable hint: " ^ e))
                | Ok h ->
                    if Lw_pir.Spir.hint_epoch h <> epoch then
                      role_err t role (transient "hint stamped with wrong epoch")
                    else begin
                      cache_hint t ~epoch h;
                      Ok h
                    end)
          | Ok (Zltp_wire.Err { code; message; _ }) ->
              if epoch_error code then begin
                note_epoch_trouble t;
                transient message
              end
              else if conn_scoped_error code then
                role_err t role (transient message)
              else fatal message
          | Ok _ -> role_err t role (transient "protocol violation: expected Spir_hint")
          | Error _ as e -> role_err t role e))

let expect_spir_answer t role ~epoch = function
  | Ok (Zltp_wire.Spir_answer { epoch = e; answer; _ }) ->
      if e <> epoch then begin
        (* never decode against the wrong epoch's hint: drop and re-sync *)
        note_epoch_trouble t;
        transient (Printf.sprintf "answer epoch %d, queried %d" e epoch)
      end
      else Ok answer
  | Ok (Zltp_wire.Err { code; message; _ }) ->
      if epoch_error code then begin
        note_epoch_trouble t;
        transient message
      end
      else if conn_scoped_error code then
        role_err t role (transient message)
      else fatal message
  | Ok _ -> role_err t role (transient "protocol violation: expected Spir_answer")
  | Error _ as e -> role_err t role e

(* One masked query → one constant-trace scan → one recovered bucket. *)
let spir_roundtrip t role (s : session) ~epoch hint index =
  let db = (params_exn t).domain_bits in
  try
    let secret, query = Lw_pir.Spir.Client.query hint ~domain_bits:db ~index t.rng in
    let qid = fresh_qid t in
    match role_err t role (send_msg s.ep (Zltp_wire.Spir_query { qid; epoch; query })) with
    | Error _ as e -> e
    | Ok () -> (
        match expect_spir_answer t role ~epoch (recv_matching s.ep ~qid) with
        | Error _ as e -> e
        | Ok answer -> (
            match Lw_pir.Spir.Client.recover hint secret answer with
            | Error e -> role_err t role (transient ("unrecoverable answer: " ^ e))
            | Ok bucket ->
                t.queries <- t.queries + 1;
                Lw_obs.Metrics.incr m_queries;
                Ok bucket))
  with Invalid_argument e -> fatal e

let spir_attempt t index =
  if t.resync_needed then resync t;
  match single_role t with
  | Error _ as e -> e
  | Ok role -> (
      match role_session t role with
      | Error e -> transient e
      | Ok s -> (
          let epoch = spir_query_epoch t s in
          match spir_hint_for t role s ~epoch with
          | Error _ as e -> e
          | Ok hint -> spir_roundtrip t role s ~epoch hint index))

(* Sequential single-server batch: there is no server-side batch verb (a
   SPIR answer is already a whole-database scan per query), but the
   whole batch still names ONE epoch, so a mid-batch seal cannot mix
   record versions — same guarantee as the two-server [Pir_batch]. *)
let spir_batch_attempt t indexed_keys =
  if t.resync_needed then resync t;
  match single_role t with
  | Error _ as e -> e
  | Ok role -> (
      match role_session t role with
      | Error e -> transient e
      | Ok s -> (
          let epoch = spir_query_epoch t s in
          match spir_hint_for t role s ~epoch with
          | Error _ as e -> e
          | Ok hint ->
              let rec go acc = function
                | [] -> Ok (List.rev acc)
                | (key, index) :: rest -> (
                    match spir_roundtrip t role s ~epoch hint index with
                    | Error _ as e -> e
                    | Ok bucket -> go (Lw_pir.Record.decode_for_key ~key bucket :: acc) rest)
              in
              go [] indexed_keys))

let spir_fetch_index t index =
  fresh_op_epoch t;
  with_retry t (fun () -> spir_attempt t index)

let get_raw_index t index =
  match (params_exn t).mode with
  | Zltp_mode.Enclave -> Error "raw index fetch is PIR-only"
  | (Zltp_mode.Pir2 | Zltp_mode.Single) as m ->
      if index < 0 || index >= 1 lsl (params_exn t).domain_bits then Error "index out of domain"
      else if m = Zltp_mode.Pir2 then pir_fetch_index t index
      else spir_fetch_index t index

let enclave_attempt t key =
  match t.roles with
  | [| role |] -> (
      match role_session t role with
      | Error e -> transient e
      | Ok s -> (
          let qid = fresh_qid t in
          match role_err t role (send_msg s.ep (Zltp_wire.Enclave_get { qid; key })) with
          | (Error _) as e -> e
          | Ok () -> (
              match recv_matching s.ep ~qid with
              | Ok (Zltp_wire.Enclave_answer { value; _ }) ->
                  t.queries <- t.queries + 1;
              Lw_obs.Metrics.incr m_queries;
                  Ok value
              | Ok (Zltp_wire.Err { code; message; _ }) ->
                  if conn_scoped_error code then
                    role_err t role (transient message)
                  else fatal message
              | Ok _ -> role_err t role (transient "protocol violation: expected Enclave_answer")
              | Error _ as e -> role_err t role e)))
  | _ -> fatal "not an enclave session"

let get t key =
  match (params_exn t).mode with
  | (Zltp_mode.Pir2 | Zltp_mode.Single) as m -> (
      let keymap = Option.get t.keymap in
      let index = Lw_pir.Keymap.index_of_key keymap key in
      let fetch = if m = Zltp_mode.Pir2 then pir_fetch_index else spir_fetch_index in
      match fetch t index with
      | Ok bucket -> Ok (Lw_pir.Record.decode_for_key ~key bucket)
      | Error e -> Error e)
  | Zltp_mode.Enclave -> with_retry t (fun () -> enclave_attempt t key)

let expect_batch t role ~epoch n = function
  | Ok (Zltp_wire.Batch_answer { epoch = e; shares; _ }) ->
      if e <> epoch then begin
        note_epoch_trouble t;
        transient (Printf.sprintf "batch answer epoch %d, queried %d" e epoch)
      end
      else if List.length shares <> n then
        role_err t role (transient "batch answer length mismatch")
      else Ok shares
  | Ok (Zltp_wire.Err { code; message; _ }) ->
      if epoch_error code then begin
        note_epoch_trouble t;
        transient message
      end
      else if conn_scoped_error code then
        role_err t role (transient message)
      else fatal message
  | Ok _ -> role_err t role (transient "protocol violation: expected Batch_answer")
  | Error _ as e -> role_err t role e

let pir_batch_attempt t indexed_keys =
  if t.resync_needed then resync t;
  match pir_sessions t with
  | Error _ as e -> e
  | Ok ((role0, s0), (role1, s1)) -> (
      let qid = fresh_qid t in
      let epoch = query_epoch t s0 s1 in
      let db = (params_exn t).domain_bits in
      let pairs =
        List.map (fun (key, index) -> (key, Lw_dpf.Dpf.gen ~domain_bits:db ~alpha:index t.rng))
          indexed_keys
      in
      let batch which =
        Zltp_wire.Pir_batch
          { qid; epoch; dpf_keys = List.map (fun (_, ks) -> Lw_dpf.Dpf.serialize (which ks)) pairs }
      in
      let n = List.length indexed_keys in
      let sent0 = role_err t role0 (send_msg s0.ep (batch fst)) in
      let sent1 = role_err t role1 (send_msg s1.ep (batch snd)) in
      match (sent0, sent1) with
      | Ok (), Ok () -> (
          let r0 = expect_batch t role0 ~epoch n (recv_matching s0.ep ~qid) in
          let r1 = expect_batch t role1 ~epoch n (recv_matching s1.ep ~qid) in
          match (r0, r1) with
          | Ok shares0, Ok shares1 ->
              t.queries <- t.queries + n;
              Lw_obs.Metrics.add m_queries n;
              Ok
                (List.map2
                   (fun (key, _) (resp0, resp1) ->
                     Lw_pir.Record.decode_for_key ~key (Lw_pir.Client.combine ~resp0 ~resp1))
                   pairs
                   (List.combine shares0 shares1))
          | _ -> first_error [ r0; r1 ])
      | _ -> first_error [ sent0; sent1 ])

(* ---- keyword GET ----

   A keyword lookup privately probes BOTH cuckoo candidate buckets of the
   key as one [Keyword_query] — two DPF key shares per server, answered as
   a single width-2 entry into the batch scan, so the whole
   lookup is one round trip and ~one scan pass. The wire shape is fixed
   and query-independent: always two keys out, always two shares back,
   even when the candidates coincide (a second real probe of the same
   bucket), so the verb leaks nothing about the key. *)

let keyword_candidates t key =
  match t.kw_maps with
  | Some (h0, h1) -> (Lw_pir.Keymap.index_of_key h0 key, Lw_pir.Keymap.index_of_key h1 key)
  | None -> invalid_arg "Zltp_client: not connected"

let expect_keyword t role ~epoch = function
  | Ok (Zltp_wire.Keyword_answer { epoch = e; share0; share1; _ }) ->
      if e <> epoch then begin
        note_epoch_trouble t;
        transient (Printf.sprintf "keyword answer epoch %d, queried %d" e epoch)
      end
      else Ok (share0, share1)
  | Ok (Zltp_wire.Err { code; message; _ }) ->
      if epoch_error code then begin
        note_epoch_trouble t;
        transient message
      end
      else if conn_scoped_error code then
        role_err t role (transient message)
      else fatal message
  | Ok _ -> role_err t role (transient "protocol violation: expected Keyword_answer")
  | Error _ as e -> role_err t role e

let keyword_attempt t key =
  if t.resync_needed then resync t;
  match pir_sessions t with
  | Error _ as e -> e
  | Ok ((role0, s0), (role1, s1)) -> (
      let qid = fresh_qid t in
      let epoch = query_epoch t s0 s1 in
      let db = (params_exn t).domain_bits in
      let i0, i1 = keyword_candidates t key in
      (* fresh DPF key pair per candidate per attempt, like every retry:
         a retried keyword query is indistinguishable from a new one *)
      let p0 = Lw_dpf.Dpf.gen ~domain_bits:db ~alpha:i0 t.rng in
      let p1 = Lw_dpf.Dpf.gen ~domain_bits:db ~alpha:i1 t.rng in
      let q which =
        Zltp_wire.Keyword_query
          {
            qid;
            epoch;
            dpf_key0 = Lw_dpf.Dpf.serialize (which p0);
            dpf_key1 = Lw_dpf.Dpf.serialize (which p1);
          }
      in
      let sent0 = role_err t role0 (send_msg s0.ep (q fst)) in
      let sent1 = role_err t role1 (send_msg s1.ep (q snd)) in
      match (sent0, sent1) with
      | Ok (), Ok () -> (
          let r0 = expect_keyword t role0 ~epoch (recv_matching s0.ep ~qid) in
          let r1 = expect_keyword t role1 ~epoch (recv_matching s1.ep ~qid) in
          match (r0, r1) with
          | Ok (a0, a1), Ok (b0, b1) ->
              t.queries <- t.queries + 1;
              Lw_obs.Metrics.incr m_queries;
              let bucket0 = Lw_pir.Client.combine ~resp0:a0 ~resp1:b0 in
              let bucket1 = Lw_pir.Client.combine ~resp0:a1 ~resp1:b1 in
              Ok
                (match Lw_pir.Record.decode_for_key ~key bucket0 with
                | Some _ as v -> v
                | None -> Lw_pir.Record.decode_for_key ~key bucket1)
          | _ -> first_error [ r0; r1 ])
      | _ -> first_error [ sent0; sent1 ])

let keyword_get t key =
  match (params_exn t).mode with
  | Zltp_mode.Enclave -> Error "keyword GET is PIR-only; enclave mode fetches by key directly"
  | Zltp_mode.Single ->
      Error "keyword GET is two-server PIR-only; single-server mode fetches by key via get"
  | Zltp_mode.Pir2 ->
      fresh_op_epoch t;
      with_retry t (fun () -> keyword_attempt t key)

(* Correlated multi-keyword fetch: 2k DPF keys ride one [Pir_batch] (the
   servers' batch kernel streams the data once per batch), and the shares
   are re-paired per keyword on decode — how a cluster retrieval fetches
   its k members in one round trip. *)
let keyword_batch_attempt t keyed =
  if t.resync_needed then resync t;
  match pir_sessions t with
  | Error _ as e -> e
  | Ok ((role0, s0), (role1, s1)) -> (
      let qid = fresh_qid t in
      let epoch = query_epoch t s0 s1 in
      let db = (params_exn t).domain_bits in
      let gens =
        List.concat_map
          (fun (_, (i0, i1)) ->
            [
              Lw_dpf.Dpf.gen ~domain_bits:db ~alpha:i0 t.rng;
              Lw_dpf.Dpf.gen ~domain_bits:db ~alpha:i1 t.rng;
            ])
          keyed
      in
      let batch which =
        Zltp_wire.Pir_batch
          { qid; epoch; dpf_keys = List.map (fun ks -> Lw_dpf.Dpf.serialize (which ks)) gens }
      in
      let n = List.length gens in
      let sent0 = role_err t role0 (send_msg s0.ep (batch fst)) in
      let sent1 = role_err t role1 (send_msg s1.ep (batch snd)) in
      match (sent0, sent1) with
      | Ok (), Ok () -> (
          let r0 = expect_batch t role0 ~epoch n (recv_matching s0.ep ~qid) in
          let r1 = expect_batch t role1 ~epoch n (recv_matching s1.ep ~qid) in
          match (r0, r1) with
          | Ok shares0, Ok shares1 ->
              t.queries <- t.queries + List.length keyed;
              Lw_obs.Metrics.add m_queries (List.length keyed);
              let buckets =
                List.map2 (fun resp0 resp1 -> Lw_pir.Client.combine ~resp0 ~resp1) shares0
                  shares1
              in
              let rec pair_up keyed buckets acc =
                match (keyed, buckets) with
                | [], [] -> Ok (List.rev acc)
                | (key, _) :: krest, b0 :: b1 :: brest ->
                    let v =
                      match Lw_pir.Record.decode_for_key ~key b0 with
                      | Some _ as v -> v
                      | None -> Lw_pir.Record.decode_for_key ~key b1
                    in
                    pair_up krest brest (v :: acc)
                | _ -> fatal "internal: keyword batch arity"
              in
              pair_up keyed buckets []
          | _ -> first_error [ r0; r1 ])
      | _ -> first_error [ sent0; sent1 ])

let keyword_get_batch t keys =
  match (params_exn t).mode with
  | Zltp_mode.Enclave -> Error "keyword GET is PIR-only; enclave mode fetches by key directly"
  | Zltp_mode.Single ->
      Error "keyword GET is two-server PIR-only; single-server mode fetches by key via get"
  | Zltp_mode.Pir2 ->
      let keyed = List.map (fun k -> (k, keyword_candidates t k)) keys in
      fresh_op_epoch t;
      with_retry t (fun () -> keyword_batch_attempt t keyed)

let get_batch t keys =
  match (params_exn t).mode with
  | Zltp_mode.Enclave ->
      (* no server-side batch primitive needed: polylog per-op cost *)
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | k :: rest -> ( match get t k with Ok v -> go (v :: acc) rest | Error e -> Error e)
      in
      go [] keys
  | (Zltp_mode.Pir2 | Zltp_mode.Single) as m ->
      let keymap = Option.get t.keymap in
      let indexed = List.map (fun k -> (k, Lw_pir.Keymap.index_of_key keymap k)) keys in
      let attempt = if m = Zltp_mode.Pir2 then pir_batch_attempt else spir_batch_attempt in
      fresh_op_epoch t;
      with_retry t (fun () -> attempt t indexed)

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
