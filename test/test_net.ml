open Lw_net
module Clock = Lw_obs.Clock

(* ---------------- Frame ---------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let encoded = Frame.encode payload in
      Alcotest.(check int) "header" (String.length payload + 4) (String.length encoded);
      Alcotest.(check int) "decoded length" (String.length payload)
        (Frame.decode_header (String.sub encoded 0 4)))
    [ ""; "x"; String.make 1000 'p' ]

let test_frame_rejects () =
  Alcotest.(check bool) "negative length" true
    (match Frame.decode_header "\xff\xff\xff\xff" with
    | exception Frame.Malformed _ -> true
    | _ -> false);
  Alcotest.(check bool) "short header" true
    (match Frame.decode_header "ab" with exception Frame.Malformed _ -> true | _ -> false)

(* [bytes] written into a pipe whose write end is then closed, so the
   reader sees exactly those bytes followed by EOF. Payloads stay far
   below the pipe buffer, so the write never blocks. *)
let with_pipe_bytes bytes f =
  let r, w = Unix.pipe () in
  ignore (Unix.write_substring w bytes 0 (String.length bytes));
  Unix.close w;
  Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> f r)

let test_frame_channels () =
  let r, w = Unix.pipe () in
  Frame.write_fd w "hello";
  Frame.write_fd w "";
  Frame.write_fd w "world!";
  Unix.close w;
  Alcotest.(check string) "first" "hello" (Frame.read_fd r);
  Alcotest.(check string) "second" "" (Frame.read_fd r);
  Alcotest.(check string) "third" "world!" (Frame.read_fd r);
  Alcotest.(check bool) "eof" true
    (match Frame.read_fd r with exception End_of_file -> true | _ -> false);
  Unix.close r

let test_frame_mid_eof () =
  (* EOF inside a frame is Malformed (the stream can never resync), EOF at
     a frame boundary stays the clean End_of_file *)
  let malformed fd = match Frame.read_fd fd with exception Frame.Malformed _ -> true | _ -> false in
  (* header promises 10 bytes, only 5 arrive *)
  let truncated_payload = "\x00\x00\x00\x0ahello" in
  Alcotest.(check bool) "payload cut" true (with_pipe_bytes truncated_payload malformed);
  (* EOF in the middle of the 4-byte header itself *)
  Alcotest.(check bool) "header cut" true (with_pipe_bytes "\x00\x00" malformed);
  (* a complete frame followed by a truncated one: first reads fine *)
  let mixed = Frame.encode "ok" ^ "\x00\x00\x00\x05ab" in
  Alcotest.(check bool) "good then cut" true
    (with_pipe_bytes mixed (fun fd ->
         let first = Frame.read_fd fd in
         first = "ok" && malformed fd))

let test_frame_short_reads_fd () =
  (* a peer that dribbles one byte at a time must still yield whole
     frames: the read loop has to keep going across short reads *)
  let r, w = Unix.pipe () in
  let payload = String.make 300 'z' in
  let framed = Frame.encode payload in
  let writer =
    Thread.create
      (fun () ->
        String.iter
          (fun c ->
            ignore (Unix.write_substring w (String.make 1 c) 0 1);
            Thread.yield ())
          framed;
        Unix.close w)
      ()
  in
  let got = Frame.read_fd r in
  Thread.join writer;
  Alcotest.(check string) "reassembled" payload got;
  (* the writer closed: next read is a clean EOF at a frame boundary *)
  Alcotest.(check bool) "clean eof" true
    (match Frame.read_fd r with exception End_of_file -> true | _ -> false);
  Unix.close r

(* ---------------- Clock ---------------- *)

let test_virtual_clock () =
  let c = Clock.virtual_ () in
  Alcotest.(check (float 1e-9)) "starts at zero" 0.0 (Clock.now c);
  let wall0 = Unix.gettimeofday () in
  Clock.sleep c 3600.0;
  Clock.sleep c 0.25;
  Alcotest.(check (float 1e-9)) "advanced" 3600.25 (Clock.now c);
  Alcotest.(check bool) "no wall time spent" true (Unix.gettimeofday () -. wall0 < 1.0);
  (* negative sleeps don't rewind *)
  Clock.sleep c (-5.0);
  Alcotest.(check (float 1e-9)) "monotonic" 3600.25 (Clock.now c)

(* ---------------- Faulty ---------------- *)

let test_faulty_passthrough () =
  let ep = Endpoint.loopback (fun m -> "re:" ^ m) in
  let f, c = Faulty.wrap Faulty.none ep in
  f.Endpoint.send "a";
  Alcotest.(check string) "clean" "re:a" (f.Endpoint.recv ());
  Alcotest.(check int) "both directions counted" 2 c.Faulty.passed;
  Alcotest.(check int) "no faults" 0 (Faulty.total_faults c)

let test_faulty_drop_times_out () =
  let ep = Endpoint.loopback (fun m -> "re:" ^ m) in
  let f, c = Faulty.wrap (Faulty.of_plan ~send:[ (0, Faulty.Drop) ] ()) ep in
  f.Endpoint.send "lost";
  (* the swallowed request means the awaited reply never comes: the recv
     surfaces a deadline expiry instead of blocking forever *)
  Alcotest.(check bool) "timeout" true
    (match f.Endpoint.recv () with exception Endpoint.Timeout -> true | _ -> false);
  Alcotest.(check int) "drop counted" 1 c.Faulty.drops;
  (* the connection survives: a second exchange works *)
  f.Endpoint.send "again";
  Alcotest.(check string) "recovered" "re:again" (f.Endpoint.recv ())

let test_faulty_duplicate_and_corrupt () =
  let ep = Endpoint.loopback (fun m -> m) in
  let f, c =
    Faulty.wrap
      (Faulty.of_plan ~recv:[ (0, Faulty.Duplicate); (2, Faulty.Corrupt 1) ] ())
      ep
  in
  f.Endpoint.send "dup";
  Alcotest.(check string) "first copy" "dup" (f.Endpoint.recv ());
  f.Endpoint.send "next";
  (* the duplicated reply arrives before the fresh one *)
  Alcotest.(check string) "stale duplicate" "dup" (f.Endpoint.recv ());
  f.Endpoint.send "xyz";
  Alcotest.(check string) "fresh after duplicate" "next" (f.Endpoint.recv ());
  let corrupted = f.Endpoint.recv () in
  Alcotest.(check bool) "one bit flipped" true
    (corrupted <> "xyz" && String.length corrupted = 3);
  Alcotest.(check int) "dup counted" 1 c.Faulty.duplicates;
  Alcotest.(check int) "corrupt counted" 1 c.Faulty.corrupts

let test_faulty_stall_closes () =
  let ep = Endpoint.loopback (fun m -> m) in
  let f, c = Faulty.wrap (Faulty.of_plan ~send:[ (1, Faulty.Stall_close) ] ()) ep in
  f.Endpoint.send "ok";
  Alcotest.(check string) "before stall" "ok" (f.Endpoint.recv ());
  f.Endpoint.send "stalled";
  Alcotest.(check bool) "stall times out" true
    (match f.Endpoint.recv () with exception Endpoint.Timeout -> true | _ -> false);
  Alcotest.(check bool) "then closed" true
    (match f.Endpoint.recv () with exception Endpoint.Closed -> true | _ -> false);
  Alcotest.(check int) "stall counted" 1 c.Faulty.stalls

let test_faulty_bernoulli_replays () =
  (* the same seed must describe the identical fault sequence — that is
     what makes a chaos run reproducible from its seed alone *)
  let sample seed =
    let s = Faulty.bernoulli ~seed ~rate:0.3 in
    List.init 200 (fun i ->
        (Option.map Faulty.fault_name (s Faulty.Send i),
         Option.map Faulty.fault_name (s Faulty.Recv i)))
  in
  Alcotest.(check bool) "same seed, same schedule" true (sample "s1" = sample "s1");
  Alcotest.(check bool) "different seed, different schedule" true
    (sample "s1" <> sample "s2");
  (* rate 0 is clean, rate must hit roughly where asked *)
  let clean = Faulty.bernoulli ~seed:"s3" ~rate:0.0 in
  Alcotest.(check bool) "rate 0 clean" true
    (List.for_all (fun i -> clean Faulty.Send i = None) (List.init 100 Fun.id));
  let faults =
    let s = Faulty.bernoulli ~seed:"s4" ~rate:0.2 in
    List.length (List.filter (fun i -> s Faulty.Send i <> None) (List.init 1000 Fun.id))
  in
  Alcotest.(check bool) "rate in the ballpark" true (faults > 120 && faults < 280)

(* ---------------- Endpoint ---------------- *)

let test_pipe_order () =
  let a, b = Endpoint.pipe () in
  a.Endpoint.send "one";
  a.Endpoint.send "two";
  Alcotest.(check string) "fifo 1" "one" (b.Endpoint.recv ());
  b.Endpoint.send "reply";
  Alcotest.(check string) "fifo 2" "two" (b.Endpoint.recv ());
  Alcotest.(check string) "reply" "reply" (a.Endpoint.recv ())

let test_pipe_close () =
  let a, b = Endpoint.pipe () in
  a.Endpoint.send "msg";
  a.Endpoint.close ();
  (* close drops in-flight data: both directions closed *)
  Alcotest.(check bool) "send after close raises" true
    (match b.Endpoint.send "x" with exception Endpoint.Closed -> true | () -> false);
  Alcotest.(check bool) "recv pending allowed" true
    (match b.Endpoint.recv () with "msg" -> true | _ -> false | exception Endpoint.Closed -> true)

let test_pipe_cross_thread () =
  let a, b = Endpoint.pipe () in
  let t =
    Thread.create
      (fun () ->
        let msg = b.Endpoint.recv () in
        b.Endpoint.send ("echo:" ^ msg))
      ()
  in
  a.Endpoint.send "ping";
  Alcotest.(check string) "echoed" "echo:ping" (a.Endpoint.recv ());
  Thread.join t

let test_loopback () =
  let ep = Endpoint.loopback (fun req -> String.uppercase_ascii req) in
  ep.Endpoint.send "hello";
  Alcotest.(check string) "handled" "HELLO" (ep.Endpoint.recv ());
  ep.Endpoint.send "a";
  ep.Endpoint.send "b";
  Alcotest.(check string) "queued a" "A" (ep.Endpoint.recv ());
  Alcotest.(check string) "queued b" "B" (ep.Endpoint.recv ())

let test_counters () =
  let ep = Endpoint.loopback (fun _ -> String.make 10 'r') in
  let counted, c = Endpoint.with_counters ep in
  counted.Endpoint.send "12345";
  ignore (counted.Endpoint.recv ());
  Alcotest.(check int) "sent" 5 c.Endpoint.sent_bytes;
  Alcotest.(check int) "recv" 10 c.Endpoint.recv_bytes;
  Alcotest.(check int) "messages" 1 c.Endpoint.messages

(* ---------------- TCP ---------------- *)

let test_tcp_echo () =
  let server =
    Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep ->
        let rec loop () =
          match ep.Endpoint.recv () with
          | msg ->
              ep.Endpoint.send ("echo:" ^ msg);
              loop ()
          | exception Endpoint.Closed -> ()
        in
        loop ())
  in
  let client = Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port server) () in
  client.Endpoint.send "over tcp";
  Alcotest.(check string) "echo" "echo:over tcp" (client.Endpoint.recv ());
  client.Endpoint.send (String.make 100000 'x');
  Alcotest.(check int) "large frame" 100005 (String.length (client.Endpoint.recv ()));
  client.Endpoint.close ();
  Tcp.shutdown server

let test_tcp_concurrent_clients () =
  let server =
    Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep ->
        match ep.Endpoint.recv () with
        | msg -> ep.Endpoint.send (String.uppercase_ascii msg)
        | exception Endpoint.Closed -> ())
  in
  let results = Array.make 8 "" in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            let c = Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port server) () in
            c.Endpoint.send (Printf.sprintf "client-%d" i);
            results.(i) <- c.Endpoint.recv ();
            c.Endpoint.close ())
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i r -> Alcotest.(check string) (Printf.sprintf "client %d" i) (Printf.sprintf "CLIENT-%d" i) r)
    results;
  Tcp.shutdown server

let test_tcp_shutdown_prompt () =
  (* shutdown must tear down live per-connection endpoints, not just the
     listening socket: a handler parked in recv has to wake with Closed,
     and the client side has to see its connection die promptly *)
  let handler_done = ref false in
  let server =
    Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep ->
        (match ep.Endpoint.recv () with
        | _ -> ()
        | exception (Endpoint.Closed | End_of_file) -> ());
        handler_done := true)
  in
  let client = Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port server) () in
  (* let the accept land so the handler is really blocked in recv *)
  Thread.delay 0.05;
  let t0 = Unix.gettimeofday () in
  Tcp.shutdown server;
  let client_died =
    match client.Endpoint.recv () with
    | exception (Endpoint.Closed | End_of_file | Frame.Malformed _) -> true
    | exception Unix.Unix_error _ -> true
    | _ -> false
  in
  let waited = ref 0.0 in
  while (not !handler_done) && !waited < 2.0 do
    Thread.delay 0.01;
    waited := !waited +. 0.01
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "client connection died" true client_died;
  Alcotest.(check bool) "handler thread terminated" true !handler_done;
  Alcotest.(check bool) "prompt (under 2s)" true (elapsed < 2.0);
  client.Endpoint.close ()

let test_tcp_recv_timeout () =
  (* a silent server: the client's deadline fires as Endpoint.Timeout *)
  let server = Tcp.serve ~host:"127.0.0.1" ~port:0 (fun _ep -> Thread.delay 5.0) in
  let client =
    Tcp.connect ~recv_timeout_s:0.1 ~host:"127.0.0.1" ~port:(Tcp.port server) ()
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "times out" true
    (match client.Endpoint.recv () with
    | exception Endpoint.Timeout -> true
    | _ -> false);
  Alcotest.(check bool) "and does so promptly" true (Unix.gettimeofday () -. t0 < 2.0);
  client.Endpoint.close ();
  Tcp.shutdown server

let test_tcp_connect_timeout () =
  (* a listener that never accepts, with its backlog already saturated:
     further SYNs are dropped on the floor, so a plain connect would sit
     in the kernel's minutes-long retransmission schedule — the bounded
     dial must surface Endpoint.Timeout instead *)
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port) in
  let fillers =
    List.init 8 (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock s;
        (try Unix.connect s addr
         with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
         -> ());
        s)
  in
  Thread.delay 0.05 (* let the accept queue fill *);
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "dial times out" true
    (match Tcp.connect ~connect_timeout_s:0.2 ~host:"127.0.0.1" ~port () with
    | exception Endpoint.Timeout -> true
    | ep ->
        ep.Endpoint.close ();
        false);
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "after the configured deadline" true (dt >= 0.15);
  Alcotest.(check bool) "promptly, not the kernel schedule" true (dt < 2.0);
  List.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) fillers;
  Unix.close srv

(* ---------------- Secure_channel ---------------- *)

let rng () = Lw_crypto.Drbg.create ~seed:"secure-channel-tests"

let handshake_pair () =
  let enclave = Secure_channel.keypair (rng ()) in
  let a, b = Endpoint.pipe () in
  let server_result = ref (Error "not run") in
  let t = Thread.create (fun () -> server_result := Secure_channel.server ~secret:enclave.Lw_crypto.X25519.secret b) () in
  let client = Secure_channel.client ~server_public:enclave.Lw_crypto.X25519.public ~rng:(rng ()) a in
  Thread.join t;
  (client, !server_result)

let test_secure_channel_roundtrip () =
  match handshake_pair () with
  | Ok c, Ok s ->
      c.Endpoint.send "private GET";
      Alcotest.(check string) "c2s" "private GET" (s.Endpoint.recv ());
      s.Endpoint.send "answer share";
      Alcotest.(check string) "s2c" "answer share" (c.Endpoint.recv ());
      (* multiple messages: counters advance in lockstep *)
      for i = 0 to 10 do
        c.Endpoint.send (string_of_int i);
        Alcotest.(check string) "seq" (string_of_int i) (s.Endpoint.recv ())
      done
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_secure_channel_ciphertext_on_wire () =
  (* the relaying host sees no plaintext *)
  let enclave = Secure_channel.keypair (rng ()) in
  let a, b = Endpoint.pipe () in
  let seen = ref [] in
  let tapped_b =
    {
      b with
      Endpoint.recv =
        (fun () ->
          let m = b.Endpoint.recv () in
          seen := m :: !seen;
          m);
    }
  in
  let server_result = ref (Error "not run") in
  let t =
    Thread.create
      (fun () ->
        server_result := Secure_channel.server ~secret:enclave.Lw_crypto.X25519.secret tapped_b;
        match !server_result with
        | Ok s -> ignore (s.Endpoint.recv ())
        | Error _ -> ())
      ()
  in
  (match Secure_channel.client ~server_public:enclave.Lw_crypto.X25519.public ~rng:(rng ()) a with
  | Ok c -> c.Endpoint.send "the secret page key"
  | Error e -> Alcotest.fail e);
  Thread.join t;
  let contains_plaintext =
    List.exists
      (fun m ->
        let needle = "secret page" in
        let n = String.length m and k = String.length needle in
        let rec go i = i + k <= n && (String.sub m i k = needle || go (i + 1)) in
        go 0)
      !seen
  in
  Alcotest.(check bool) "host sees only ciphertext" false contains_plaintext

let test_secure_channel_wrong_server_key () =
  (* a MITM host that substitutes its own keypair fails key confirmation *)
  let real = Secure_channel.keypair (rng ()) in
  let mitm = Secure_channel.keypair (Lw_crypto.Drbg.create ~seed:"mitm") in
  let a, b = Endpoint.pipe () in
  let t = Thread.create (fun () -> ignore (Secure_channel.server ~secret:mitm.Lw_crypto.X25519.secret b)) () in
  (match Secure_channel.client ~server_public:real.Lw_crypto.X25519.public ~rng:(rng ()) a with
  | Error e -> Alcotest.(check bool) ("refused: " ^ e) true (String.length e > 0)
  | Ok _ -> Alcotest.fail "client accepted an impostor");
  Thread.join t

let test_secure_channel_detects_tampering () =
  match handshake_pair () with
  | Ok c, Ok s ->
      (* flip a ciphertext byte between the peers: receiver must abort *)
      let a2, b2 = Endpoint.pipe () in
      ignore (a2, b2);
      c.Endpoint.send "legit";
      Alcotest.(check string) "legit passes" "legit" (s.Endpoint.recv ());
      (* replay: resending the same ciphertext is rejected because the
         receive counter moved on. We simulate by sending two identical
         plaintexts — ciphertexts must differ (fresh nonces) *)
      c.Endpoint.send "same";
      let m1 = s.Endpoint.recv () in
      c.Endpoint.send "same";
      let m2 = s.Endpoint.recv () in
      Alcotest.(check string) "both decrypt" m1 m2
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_secure_channel_tamper_aborts () =
  let enclave = Secure_channel.keypair (rng ()) in
  let a, b = Endpoint.pipe () in
  (* host-side endpoint that corrupts the second client message *)
  let count = ref 0 in
  let corrupting_b =
    {
      b with
      Endpoint.recv =
        (fun () ->
          let m = b.Endpoint.recv () in
          incr count;
          if !count = 2 then begin
            let bytes = Bytes.of_string m in
            Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) lxor 1));
            Bytes.to_string bytes
          end
          else m);
    }
  in
  let outcome = ref `Pending in
  let t =
    Thread.create
      (fun () ->
        match Secure_channel.server ~secret:enclave.Lw_crypto.X25519.secret corrupting_b with
        | Ok s -> (
            match s.Endpoint.recv () with
            | _ -> outcome := `Accepted
            | exception Endpoint.Closed -> outcome := `Rejected)
        | Error _ -> outcome := `HandshakeFailed)
      ()
  in
  (match Secure_channel.client ~server_public:enclave.Lw_crypto.X25519.public ~rng:(rng ()) a with
  | Ok c -> ( try c.Endpoint.send "will be corrupted" with Endpoint.Closed -> ())
  | Error e -> Alcotest.fail e);
  Thread.join t;
  Alcotest.(check bool) "tampered frame rejected" true (!outcome = `Rejected)

let () =
  Alcotest.run "lw_net"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "rejects" `Quick test_frame_rejects;
          Alcotest.test_case "channels" `Quick test_frame_channels;
          Alcotest.test_case "mid-frame eof" `Quick test_frame_mid_eof;
          Alcotest.test_case "short reads" `Quick test_frame_short_reads_fd;
        ] );
      ( "clock",
        [ Alcotest.test_case "virtual" `Quick test_virtual_clock ] );
      ( "faulty",
        [
          Alcotest.test_case "passthrough" `Quick test_faulty_passthrough;
          Alcotest.test_case "drop times out" `Quick test_faulty_drop_times_out;
          Alcotest.test_case "duplicate and corrupt" `Quick test_faulty_duplicate_and_corrupt;
          Alcotest.test_case "stall closes" `Quick test_faulty_stall_closes;
          Alcotest.test_case "bernoulli replays" `Quick test_faulty_bernoulli_replays;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "pipe order" `Quick test_pipe_order;
          Alcotest.test_case "pipe close" `Quick test_pipe_close;
          Alcotest.test_case "cross thread" `Quick test_pipe_cross_thread;
          Alcotest.test_case "loopback" `Quick test_loopback;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "echo" `Quick test_tcp_echo;
          Alcotest.test_case "concurrent clients" `Quick test_tcp_concurrent_clients;
          Alcotest.test_case "shutdown prompt" `Quick test_tcp_shutdown_prompt;
          Alcotest.test_case "recv timeout" `Quick test_tcp_recv_timeout;
          Alcotest.test_case "connect timeout" `Quick test_tcp_connect_timeout;
        ] );
      ( "secure-channel",
        [
          Alcotest.test_case "roundtrip" `Quick test_secure_channel_roundtrip;
          Alcotest.test_case "ciphertext on wire" `Quick test_secure_channel_ciphertext_on_wire;
          Alcotest.test_case "wrong server key" `Quick test_secure_channel_wrong_server_key;
          Alcotest.test_case "fresh nonces" `Quick test_secure_channel_detects_tampering;
          Alcotest.test_case "tamper aborts" `Quick test_secure_channel_tamper_aborts;
        ] );
    ]
