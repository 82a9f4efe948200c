(* ZLTP's second mode of operation (§2.2): a hardware enclave running
   Path ORAM, reached through an authenticated encrypted channel that
   terminates inside the enclave. The untrusted host — played here by a
   real TCP relay — sees only an ephemeral public key and ciphertext,
   while the enclave's memory accesses are oblivious.

   Run with: dune exec examples/enclave_mode.exe *)

module Json = Lw_json.Json
open Lightweb

let () =
  (* the CDN loads content into the enclave's oblivious store *)
  let universe = Universe.create ~name:"enclave-demo" Universe.default_geometry in
  ignore (Universe.claim_domain universe ~publisher:"pub" ~domain:"vault.example");
  List.iter
    (fun (path, body) ->
      match
        Universe.push_data universe ~publisher:"pub" ~path
          ~value:(Json.Obj [ ("body", Json.String body) ])
      with
      | Ok () -> ()
      | Error e -> failwith e)
    [
      ("vault.example/a", "document A");
      ("vault.example/b", "document B");
      ("vault.example/c", "document C");
    ];
  let enclave_server = Universe.enclave_data_server universe in

  (* enclave provisioning: a static identity keypair whose public half the
     client pins (in SGX terms: from the attestation report) *)
  let identity = Lw_net.Secure_channel.keypair (Lw_crypto.Drbg.system ()) in
  Printf.printf "enclave identity (attested): %s...\n"
    (String.sub (Lw_util.Hex.encode identity.Lw_crypto.X25519.public) 0 16);

  (* the untrusted host: a TCP server that terminates the socket and hands
     the bytes to the "enclave" (which unwraps the secure channel) *)
  let tcp =
    Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep ->
        match Lw_net.Secure_channel.server ~secret:identity.Lw_crypto.X25519.secret ep with
        | Ok inside_enclave -> Zltp_server.serve enclave_server inside_enclave
        | Error e -> Printf.eprintf "handshake failed: %s\n" e)
  in
  Printf.printf "untrusted host listening on 127.0.0.1:%d\n\n" (Lw_net.Tcp.port tcp);

  (* the client: TCP -> secure channel -> ZLTP session (enclave mode) *)
  let raw = Lw_net.Tcp.connect ~host:"127.0.0.1" ~port:(Lw_net.Tcp.port tcp) () in
  (* the client closes [raw] with its session; the cover also closes it
     when a step before that raises *)
  Fun.protect
    ~finally:(fun () -> raw.Lw_net.Endpoint.close ())
    (fun () ->
      let counted, counters = Lw_net.Endpoint.with_counters raw in
      let secured =
        match
          Lw_net.Secure_channel.client ~server_public:identity.Lw_crypto.X25519.public
            ~rng:(Lw_crypto.Drbg.system ()) counted
        with
        | Ok ep -> ep
        | Error e -> failwith e
      in
      let client =
        match Zltp_client.connect ~prefer:[ Zltp_mode.Enclave ] [ secured ] with
        | Ok c -> c
        | Error e -> failwith e
      in
      Printf.printf "negotiated mode: %s\n" (Zltp_mode.name (Zltp_client.mode client));
      List.iter
        (fun a -> Printf.printf "  assumption: %s\n" a)
        (Zltp_mode.assumptions (Zltp_client.mode client));

      List.iter
        (fun key ->
          match Zltp_client.get client key with
          | Ok (Some v) -> Printf.printf "\nGET %-18s -> %s" key v
          | Ok None -> Printf.printf "\nGET %-18s -> (absent)" key
          | Error e -> Printf.printf "\nGET %-18s -> error: %s" key e)
        [ "vault.example/b"; "vault.example/a"; "vault.example/nope" ];

      Printf.printf
        "\n\nwhat the untrusted host saw: %d messages, %d bytes up / %d bytes down —\n\
         all ciphertext. Hits and misses cost the same single ORAM path, so even the\n\
         enclave's memory bus reveals nothing about the keys.\n"
        counters.Lw_net.Endpoint.messages counters.Lw_net.Endpoint.sent_bytes
        counters.Lw_net.Endpoint.recv_bytes;
      Zltp_client.close client);
  Lw_net.Tcp.shutdown tcp
