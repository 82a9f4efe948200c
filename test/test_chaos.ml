(* Chaos suite: drive the full client -> frontend -> shard path through
   seeded, replayable fault schedules (Lw_net.Faulty) and assert that the
   only observable outcomes are the correct bucket bytes or a clean
   structured [Error] — never wrong bytes, never an escaped exception.
   Every run is hang-free by construction: clocks are virtual and the
   Faulty wrapper turns swallowed messages into immediate [Timeout]s.

   The geometry is deliberately tiny (64 buckets, 4 shards, 32-byte
   blobs) so the 200 randomized schedules finish in well under a second;
   the code paths exercised are exactly the production ones. *)

open Lightweb
module Faulty = Lw_net.Faulty
module Clock = Lw_obs.Clock

let domain_bits = 6
let bucket_size = 32
let shard_bits = 2
let n_buckets = 1 lsl domain_bits

(* every replica's front-end serves views of the same seeded one-epoch
   store, and the tests know the expected plaintext of every bucket *)
let reference_store =
  let st = Lw_store.create ~domain_bits ~bucket_size () in
  let w = Lw_store.writer st in
  Lw_store.Writer.fill_random w (Lw_util.Det_rng.of_string_seed "chaos-db");
  ignore (Lw_store.Writer.seal w);
  st

let expected idx = Lw_store.Snapshot.get (Lw_store.current reference_store) idx

(* quick policy: same shape as production, but with backoffs sized so even
   a retry-heavy run spends only simulated milliseconds *)
let quick_policy =
  { Zltp_client.attempts = 4; base_backoff_s = 0.01; max_backoff_s = 0.1; deadline_s = 60.0 }

type world = {
  roles : Zltp_client.replica list list;
  clock : Clock.t;
  counters : Faulty.counters;
  frontends : Zltp_frontend.t array array; (* [role].[replica] *)
}

(* [sched ~role ~replica ~dial] picks the fault schedule for the [dial]-th
   connection to that replica — re-dials after a failover get their own
   schedule, which is what lets canned scenarios hit only the first
   connection and randomized ones stay independent across dials. *)
let make_world ?(replicas_per_role = 2) ~sched () =
  let clock = Clock.virtual_ () in
  let counters = Faulty.fresh_counters () in
  let frontends =
    Array.init 2 (fun _ ->
        Array.init replicas_per_role (fun _ ->
            Zltp_frontend.of_store reference_store ~shard_bits))
  in
  let servers =
    Array.map
      (Array.map (fun fe ->
           Zltp_server.create ~blob_size:bucket_size (Zltp_backend.sharded fe)))
      frontends
  in
  let dials = Array.make_matrix 2 replicas_per_role 0 in
  let mk_replica role i =
    Zltp_client.replica
      ~name:(Printf.sprintf "r%d-%d" role i)
      (fun () ->
        let d = dials.(role).(i) in
        dials.(role).(i) <- d + 1;
        let ep = Zltp_server.endpoint servers.(role).(i) in
        let f, _ = Faulty.wrap ~clock ~counters (sched ~role ~replica:i ~dial:d) ep in
        Ok f)
  in
  let roles = List.init 2 (fun role -> List.init replicas_per_role (mk_replica role)) in
  { roles; clock; counters; frontends }

type outcome = Correct | Wrong of int | Clean_error of string

let outcome_ok = function Wrong _ -> false | Correct | Clean_error _ -> true

(* the core invariant: run [ops] private-GETs and classify each one *)
let run_ops ?(ops = 6) client =
  List.init ops (fun i ->
      let idx = (i * 13 + 5) mod n_buckets in
      match Zltp_client.get_raw_index client idx with
      | Ok bytes -> if String.equal bytes (expected idx) then Correct else Wrong idx
      | Error e -> Clean_error e)

let connect w =
  Zltp_client.connect_replicated ~policy:quick_policy ~clock:w.clock
    ~rng:(Lw_crypto.Drbg.create ~seed:"chaos-client")
    w.roles

let assert_no_wrong name outcomes =
  List.iter
    (fun o ->
      match o with
      | Wrong idx -> Alcotest.failf "%s: WRONG BYTES for bucket %d" name idx
      | Correct | Clean_error _ -> ())
    outcomes

let assert_all_correct name outcomes =
  List.iteri
    (fun i o ->
      match o with
      | Correct -> ()
      | Wrong idx -> Alcotest.failf "%s: op %d returned wrong bytes (bucket %d)" name i idx
      | Clean_error e -> Alcotest.failf "%s: op %d unexpectedly failed: %s" name i e)
    outcomes

(* ---------------- canned scenarios ---------------- *)

(* Loopback connection message ordinals (what of_plan indexes):
   send: 0 = Health probe, 1 = Hello, 2.. = queries
   recv: 0 = Health_reply, 1 = Welcome, 2.. = answers *)

type expect = All_correct | No_wrong

let canned : (string * (role:int -> replica:int -> dial:int -> Faulty.schedule) * expect) list =
  let at ~role:r ~replica:i ~dial:d plan = fun ~role ~replica ~dial ->
    if role = r && replica = i && dial = d then plan else Faulty.none
  in
  let always_on ~role:r ~replica:i plan = fun ~role ~replica ~dial:_ ->
    if role = r && replica = i then plan else Faulty.none
  in
  let drop_all_answers = Faulty.of_plan ~recv:(List.init 16 (fun k -> (2 + k, Faulty.Drop))) () in
  [
    ("clean", (fun ~role:_ ~replica:_ ~dial:_ -> Faulty.none), All_correct);
    ( "drop first answer",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (2, Faulty.Drop) ] ()),
      All_correct );
    ("drop every r0-0 answer", always_on ~role:0 ~replica:0 drop_all_answers, All_correct);
    ( "duplicate answer",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (2, Faulty.Duplicate) ] ()),
      All_correct );
    ( "duplicate query",
      at ~role:1 ~replica:0 ~dial:0 (Faulty.of_plan ~send:[ (2, Faulty.Duplicate) ] ()),
      All_correct );
    ( "corrupt answer",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (2, Faulty.Corrupt 5) ] ()),
      All_correct );
    ( "corrupt second answer",
      at ~role:1 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (3, Faulty.Corrupt 1000) ] ()),
      All_correct );
    ( "truncate answer",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (2, Faulty.Truncate 3) ] ()),
      All_correct );
    (* a corrupted/truncated *query* reaches the server as garbage: it
       answers a structured Err; the op fails cleanly, later ops succeed *)
    ( "corrupt query",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~send:[ (2, Faulty.Corrupt 9) ] ()),
      No_wrong );
    ( "truncate query",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~send:[ (2, Faulty.Truncate 4) ] ()),
      No_wrong );
    ( "delay answer",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (2, Faulty.Delay 0.5) ] ()),
      All_correct );
    ( "stall then close",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~send:[ (2, Faulty.Stall_close) ] ()),
      All_correct );
    ( "close during health probe",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~send:[ (0, Faulty.Close_now) ] ()),
      All_correct );
    ( "close mid-handshake",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~send:[ (1, Faulty.Close_now) ] ()),
      All_correct );
    ( "close mid-session",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (3, Faulty.Close_now) ] ()),
      All_correct );
    ( "drop health reply",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (0, Faulty.Drop) ] ()),
      All_correct );
    ( "corrupt welcome",
      at ~role:0 ~replica:0 ~dial:0 (Faulty.of_plan ~recv:[ (1, Faulty.Corrupt 3) ] ()),
      All_correct );
    ( "both role-0 replicas drop all answers",
      (fun ~role ~replica:_ ~dial:_ -> if role = 0 then drop_all_answers else Faulty.none),
      No_wrong );
    ( "faults on both roles at once",
      (fun ~role ~replica ~dial ->
        if dial = 0 && replica = 0 then
          if role = 0 then Faulty.of_plan ~recv:[ (2, Faulty.Drop) ] ()
          else Faulty.of_plan ~recv:[ (2, Faulty.Corrupt 7) ] ()
        else Faulty.none),
      All_correct );
    (* both role-0 replicas fail on their first connection; the retry
       loop has to come back around and re-dial the first one *)
    ( "first dial of every replica faulty",
      (fun ~role ~replica:_ ~dial ->
        if role = 0 && dial = 0 then Faulty.of_plan ~recv:[ (2, Faulty.Drop) ] ()
        else Faulty.none),
      All_correct );
  ]

let test_canned () =
  List.iter
    (fun (name, sched, expect) ->
      let w = make_world ~sched () in
      match connect w with
      | Error e -> Alcotest.failf "%s: connect failed: %s" name e
      | Ok client ->
          let outcomes = run_ops client in
          (match expect with
          | All_correct -> assert_all_correct name outcomes
          | No_wrong -> assert_no_wrong name outcomes);
          (* after whatever failovers happened, every op is answerable
             again — the client is never left wedged *)
          (match Zltp_client.get_raw_index client 1 with
          | Ok b -> Alcotest.(check string) (name ^ ": recovers") (expected 1) b
          | Error _ when expect <> All_correct -> ()
          | Error e -> Alcotest.failf "%s: no recovery: %s" name e);
          Zltp_client.close client)
    canned

(* ---------------- backend degradation (err_degraded path) ---------------- *)

let clean_sched ~role:_ ~replica:_ ~dial:_ = Faulty.none

let test_shard_down_at_dial () =
  (* r0-0's frontend loses a shard before the client ever connects: the
     Health probe reports it and the dial moves on to r0-1 *)
  let w = make_world ~sched:clean_sched () in
  Zltp_frontend.set_shard_down w.frontends.(0).(0) 1 true;
  match connect w with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      assert_all_correct "shard down at dial" (run_ops client);
      Alcotest.(check (list (option string)))
        "degraded replica skipped"
        [ Some "r0-1"; Some "r1-0" ]
        (Zltp_client.current_replicas client);
      Zltp_client.close client

let test_shard_down_mid_session () =
  (* degradation after the handshake: the next query gets err_degraded,
     which the client treats as transient — fail over and retry *)
  let w = make_world ~sched:clean_sched () in
  match connect w with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      assert_all_correct "before degradation" (run_ops ~ops:2 client);
      Zltp_frontend.set_shard_down w.frontends.(0).(0) 2 true;
      assert_all_correct "after degradation" (run_ops client);
      Alcotest.(check int) "failed over once" 1 (Zltp_client.failovers client);
      Zltp_client.close client

let test_all_replicas_degraded () =
  (* both replicas of role 0 lose a shard: nothing to fail over to, so
     the client reports a clean error — never a partial-XOR answer *)
  let w = make_world ~sched:clean_sched () in
  Zltp_frontend.set_shard_down w.frontends.(0).(0) 0 true;
  Zltp_frontend.set_shard_down w.frontends.(0).(1) 3 true;
  (match connect w with
  | Error _ -> ()
  | Ok client ->
      Alcotest.failf "connect should have failed; got replicas %s"
        (String.concat ","
           (List.map (Option.value ~default:"-") (Zltp_client.current_replicas client))));
  (* and mid-session: degrade everything after a clean connect *)
  let w2 = make_world ~sched:clean_sched () in
  match connect w2 with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      Zltp_frontend.set_shard_down w2.frontends.(0).(0) 0 true;
      Zltp_frontend.set_shard_down w2.frontends.(0).(1) 3 true;
      List.iter
        (fun o ->
          match o with
          | Clean_error _ -> ()
          | Correct -> Alcotest.fail "degraded backends answered anyway"
          | Wrong idx -> Alcotest.failf "WRONG BYTES for bucket %d" idx)
        (run_ops ~ops:2 client);
      Zltp_client.close client

let test_kill_one_replica () =
  (* a permanently dead replica first in the role list: connect must walk
     past it and the session must behave as if it never existed *)
  let w = make_world ~sched:clean_sched () in
  let dead = Zltp_client.replica ~name:"r0-dead" (fun () -> Error "connection refused") in
  let roles =
    match w.roles with
    | [ role0; role1 ] -> [ dead :: role0; role1 ]
    | _ -> assert false
  in
  match
    Zltp_client.connect_replicated ~policy:quick_policy ~clock:w.clock
      ~rng:(Lw_crypto.Drbg.create ~seed:"chaos-kill")
      roles
  with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      assert_all_correct "kill one replica" (run_ops client);
      (match Zltp_client.current_replicas client with
      | Some r0 :: _ -> Alcotest.(check bool) "not the dead one" true (r0 <> "r0-dead")
      | _ -> Alcotest.fail "no live replica for role 0");
      Zltp_client.close client

(* ---------------- epoch skew (versioned backends) ---------------- *)

(* Replicas serving the epoch-versioned backend can legitimately be one
   epoch apart while a publisher push propagates. The protocol contract
   under that skew: every reconstruction XORs two shares of the SAME
   epoch — the client lands on a common epoch when one exists, re-syncs
   and fails over when it does not, and reports a clean error when no
   common epoch is live anywhere. Never mixed-epoch bytes. *)

let bucket_gen g i = Printf.sprintf "epoch-bucket-%02d-gen-%d" i g

let expected_gen g i =
  let s = bucket_gen g i in
  s ^ String.make (bucket_size - String.length s) '\000'

(* every engine seals epoch 1 (gen 0 content); up-to-date replicas also
   seal epoch 2 (gen 1). [keep] controls whether epoch 1 stays live. *)
let make_engine ~keep ~epochs =
  let st = Lw_store.create ~keep ~domain_bits ~bucket_size () in
  for g = 0 to epochs - 1 do
    let w = Lw_store.writer st in
    for i = 0 to n_buckets - 1 do
      Lw_store.Writer.set w i (bucket_gen g i)
    done;
    ignore (Lw_store.Writer.seal w)
  done;
  st

let make_versioned_world ~keep ~behind () =
  let clock = Clock.virtual_ () in
  let servers =
    Array.init 2 (fun role ->
        Array.init 2 (fun i ->
            let epochs = if List.mem (role, i) behind then 1 else 2 in
            Zltp_server.create ~blob_size:bucket_size
              (Zltp_backend.versioned (make_engine ~keep ~epochs))))
  in
  let mk role i =
    Zltp_client.replica
      ~name:(Printf.sprintf "r%d-%d" role i)
      (fun () -> Ok (Zltp_server.endpoint servers.(role).(i)))
  in
  (List.init 2 (fun role -> List.init 2 (mk role)), clock)

let connect_versioned (roles, clock) =
  Zltp_client.connect_replicated ~policy:quick_policy ~clock
    ~rng:(Lw_crypto.Drbg.create ~seed:"chaos-epoch")
    roles

let run_gen_ops ?(ops = 6) ~gen client =
  List.init ops (fun i ->
      let idx = (i * 13 + 5) mod n_buckets in
      match Zltp_client.get_raw_index client idx with
      | Ok bytes -> if String.equal bytes (expected_gen gen idx) then Correct else Wrong idx
      | Error e -> Clean_error e)

let test_epoch_behind_common () =
  (* r0-0 is one epoch behind but the keep window still holds epoch 1
     everywhere: queries settle on the common epoch and answer its
     (older) consistent bytes — consistency beats freshness *)
  let w = make_versioned_world ~keep:2 ~behind:[ (0, 0) ] () in
  match connect_versioned w with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      List.iteri
        (fun i o ->
          match o with
          | Correct -> ()
          | Wrong idx -> Alcotest.failf "op %d: mixed/wrong bytes (bucket %d)" i idx
          | Clean_error e -> Alcotest.failf "op %d failed: %s" i e)
        (run_gen_ops ~gen:0 client);
      Alcotest.(check int) "no resync needed" 0 (Zltp_client.epoch_resyncs client);
      Zltp_client.close client

let test_epoch_behind_retired () =
  (* keep=1 retires epoch 1 on the up-to-date replicas, so the common
     epoch the client first picks is answerable only by the stale
     replica: the other role returns err_epoch_retired, the client
     re-syncs, fails over off the stale replica and retries at epoch 2 *)
  let w = make_versioned_world ~keep:1 ~behind:[ (0, 0) ] () in
  match connect_versioned w with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      List.iteri
        (fun i o ->
          match o with
          | Correct -> ()
          | Wrong idx -> Alcotest.failf "op %d: mixed/wrong bytes (bucket %d)" i idx
          | Clean_error e -> Alcotest.failf "op %d failed: %s" i e)
        (run_gen_ops ~gen:1 client);
      Alcotest.(check bool) "re-synced at least once" true
        (Zltp_client.epoch_resyncs client >= 1);
      Alcotest.(check bool) "failed over off the stale replica" true
        (Zltp_client.failovers client >= 1);
      (match Zltp_client.current_replicas client with
      | Some r0 :: _ -> Alcotest.(check string) "stale replica abandoned" "r0-1" r0
      | _ -> Alcotest.fail "no live replica for role 0");
      Zltp_client.close client

let test_epoch_no_common () =
  (* both role-0 replicas are stuck at epoch 1 and keep=1 has retired it
     on role 1: there is no epoch both roles can answer, so every op must
     end in a clean error — a mixed-epoch XOR would be silent corruption *)
  let w = make_versioned_world ~keep:1 ~behind:[ (0, 0); (0, 1) ] () in
  match connect_versioned w with
  | Error _ -> () (* failing to connect is equally clean *)
  | Ok client ->
      List.iteri
        (fun i o ->
          match o with
          | Clean_error _ -> ()
          | Wrong idx -> Alcotest.failf "op %d: MIXED-EPOCH BYTES (bucket %d)" i idx
          | Correct -> Alcotest.failf "op %d: answered without a common epoch" i)
        (run_gen_ops ~ops:2 ~gen:1 client);
      Zltp_client.close client

(* ---------------- retry privacy ---------------- *)

let test_retry_trace_property () =
  (* the wire-shape property (fresh DPF keys + fresh qid + identical frame
     sizes on retry) is part of the chaos contract, so run it here too *)
  match Lw_analysis.Trace_check.check_retry () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_retry_trace_property_verbs () =
  List.iter
    (fun verb ->
      match Lw_analysis.Trace_check.check_retry ~verb () with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ `Get_batch; `Keyword_get; `Keyword_get_batch ]

(* ---------------- short shares ---------------- *)

(* A server whose PIR shares arrive one byte short of blob_size, CRC and
   all: [handle_frame]'s reply re-encoded with every share truncated. *)
let truncating server =
  let c = Zltp_server.conn server in
  let short s = String.sub s 0 (String.length s - 1) in
  Lw_net.Endpoint.loopback (fun frame ->
      match Zltp_server.handle_frame c frame with
      | None ->
          Zltp_wire.encode_server
            (Zltp_wire.Err
               { qid = 0; code = Zltp_wire.err_bad_request; message = "connection closed" })
      | Some reply -> (
          match Zltp_wire.decode_server reply with
          | Ok (Zltp_wire.Answer a) ->
              Zltp_wire.encode_server (Zltp_wire.Answer { a with share = short a.share })
          | Ok (Zltp_wire.Batch_answer b) ->
              Zltp_wire.encode_server
                (Zltp_wire.Batch_answer { b with shares = List.map short b.shares })
          | Ok (Zltp_wire.Keyword_answer k) ->
              Zltp_wire.encode_server
                (Zltp_wire.Keyword_answer
                   { k with share0 = short k.share0; share1 = short k.share1 })
          | _ -> reply))

let test_short_shares_fail_closed () =
  (* a share of the wrong length must end in a clean [Error] whether one
     server sends it (no XOR of unequal lengths may escape) or both do (no
     XOR of two short shares may come back as a value) *)
  let keys = [ "short/a"; "short/b" ] in
  let data = Lw_store.create ~domain_bits ~bucket_size () in
  let w = Lw_store.writer data in
  List.iter
    (fun key ->
      Lw_store.Writer.set w (Lw_store.index_of_key data key)
        (Lw_pir.Record.encode ~bucket_size ~key ~value:("v:" ^ key)))
    keys;
  ignore (Lw_store.Writer.seal w);
  let kw = Lw_pir.Kw_store.create ~domain_bits ~bucket_size () in
  List.iter (fun key -> ignore (Lw_pir.Kw_store.insert kw ~key ~value:("v:" ^ key))) keys;
  ignore (Lw_pir.Kw_store.publish kw);
  let first = function Some v :: _ -> Some v | _ -> None in
  let ops =
    [
      ("get", data, fun c -> Zltp_client.get c "short/a");
      ("get_batch", data, fun c -> Result.map first (Zltp_client.get_batch c keys));
      ("keyword_get", Lw_pir.Kw_store.engine kw, fun c -> Zltp_client.keyword_get c "short/a");
    ]
  in
  List.iter
    (fun (verb, st, op) ->
      List.iter
        (fun (label, short0, short1) ->
          let server () =
            Zltp_server.create ~hash_key:(Lw_store.hash_key st) ~blob_size:bucket_size
              (Zltp_backend.versioned st)
          in
          let replica name short =
            let s = server () in
            Zltp_client.replica ~name (fun () ->
                Ok (if short then truncating s else Zltp_server.endpoint s))
          in
          match
            Zltp_client.connect_replicated ~policy:quick_policy ~clock:(Clock.virtual_ ())
              ~rng:(Lw_crypto.Drbg.create ~seed:"short-shares")
              [ [ replica "a" short0 ]; [ replica "b" short1 ] ]
          with
          | Error e -> Alcotest.failf "%s, %s: connect: %s" verb label e
          | Ok client ->
              (match op client with
              | Ok v when not (short0 || short1) ->
                  Alcotest.(check (option string)) (verb ^ " control") (Some "v:short/a") v
              | Ok _ -> Alcotest.failf "%s, %s: returned Ok" verb label
              | Error _ when not (short0 || short1) -> Alcotest.failf "%s control failed" verb
              | Error _ -> ()
              | exception e ->
                  Alcotest.failf "%s, %s: raised %s" verb label (Printexc.to_string e));
              Zltp_client.close client)
        [
          ("no short shares", false, false);
          ("role 0 short", true, false);
          ("role 1 short", false, true);
          ("both short", true, true);
        ])
    ops

(* ---------------- randomized schedules ---------------- *)

(* 200 seeded Bernoulli fault schedules at mixed rates over the whole
   path. The property is exactly the suite's headline invariant: every
   operation ends in the correct bytes or a clean [Error]. Determinism of
   [Faulty.bernoulli] means any failure replays from its seed alone. *)
let prop_randomized =
  QCheck.Test.make ~name:"randomized fault schedules" ~count:200
    QCheck.(pair small_nat (oneofl [ 0.02; 0.05; 0.1; 0.2; 0.4 ]))
    (fun (seed, rate) ->
      let sched ~role ~replica ~dial =
        Faulty.bernoulli
          ~seed:(Printf.sprintf "chaos-%d/r%d-%d/d%d" seed role replica dial)
          ~rate
      in
      let w = make_world ~sched () in
      match connect w with
      | Error _ -> true (* clean connect failure is a legal outcome *)
      | Ok client ->
          let outcomes = run_ops ~ops:4 client in
          Zltp_client.close client;
          List.for_all outcome_ok outcomes)

let () =
  Alcotest.run "chaos"
    [
      ( "canned",
        [
          Alcotest.test_case "20 canned schedules" `Quick test_canned;
          Alcotest.test_case "shard down at dial" `Quick test_shard_down_at_dial;
          Alcotest.test_case "shard down mid-session" `Quick test_shard_down_mid_session;
          Alcotest.test_case "all replicas degraded" `Quick test_all_replicas_degraded;
          Alcotest.test_case "kill one replica" `Quick test_kill_one_replica;
          Alcotest.test_case "retry wire shape" `Quick test_retry_trace_property;
          Alcotest.test_case "retry wire shape, every Pir2 verb" `Quick
            test_retry_trace_property_verbs;
          Alcotest.test_case "short shares fail closed" `Quick test_short_shares_fail_closed;
        ] );
      ( "epoch skew",
        [
          Alcotest.test_case "behind with common epoch" `Quick test_epoch_behind_common;
          Alcotest.test_case "behind, common epoch retired" `Quick test_epoch_behind_retired;
          Alcotest.test_case "no common epoch" `Quick test_epoch_no_common;
        ] );
      ("randomized", [ QCheck_alcotest.to_alcotest prop_randomized ]);
    ]
