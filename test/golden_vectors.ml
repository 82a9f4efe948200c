(* Golden vectors for the DPF's PRG, key generation, evaluation, the PIR
   answers, the ChaCha20/DRBG streams and the channel primitives
   (ChaCha20 keystreams, Poly1305 tags, AEAD seals, X25519 results):
   every entry is a name and the
   hex of its bytes (or of their SHA-256 when they are long). [Test_prg]
   compares a fresh computation with the table recorded from an earlier
   implementation, byte for byte. *)

open Lw_dpf
open Lw_repro

let hex = Lw_util.Hex.encode
let digest s = hex (Lw_crypto.Sha256.digest s)
let seed16 label = Bytes.of_string (String.sub (Lw_crypto.Sha256.digest label) 0 16)

let fixed_seeds =
  [
    ("zero", Bytes.make 16 '\x00');
    ("ones", Bytes.make 16 '\xff');
    ("a", seed16 "golden-a");
    ("b", seed16 "golden-b");
  ]

let prg_vectors () =
  List.concat_map
    (fun (label, seed) ->
      let out = Bytes.create 32 in
      let bits = Prg.expand_into ~src:seed ~src_pos:0 ~dst:out ~dst_pos:0 in
      let term = Bytes.create Prg.terminal_len in
      Prg.terminal_into ~src:seed ~src_pos:0 ~dst:term ~dst_pos:0;
      let name = "prg.aes-mmo." ^ label in
      [
        (name ^ ".expand", Printf.sprintf "%s/%d" (hex (Bytes.to_string out)) bits);
        (name ^ ".terminal", hex (Bytes.to_string term));
      ])
    fixed_seeds

let domains = List.init 22 (fun i -> i + 1)
let rng label = Lw_crypto.Drbg.create ~seed:("golden-" ^ label)
let alpha_for d = 0x2a5a5 land ((1 lsl d) - 1)

let key_vectors () =
  List.concat_map
    (fun d ->
      let k0, k1 = Dpf.gen ~domain_bits:d ~alpha:(alpha_for d) (rng "sel") in
      let v0, v1 =
        Dpf.gen ~value:"golden-value-twenty!" ~domain_bits:d ~alpha:(alpha_for d) (rng "val")
      in
      let ser k = digest (Dpf.serialize k) in
      [
        (Printf.sprintf "dpf.sel.d%d" d, ser k0 ^ ser k1);
        (Printf.sprintf "dpf.val.d%d" d, ser v0 ^ ser v1);
      ])
    domains

(* every leaf bit of a key, as 0/1 bytes, through one traversal *)
let bits_all k =
  let b = Bytes.create (1 lsl Dpf.domain_bits k) in
  Dpf.eval_all_bits k (fun x t -> Bytes.set b x (Char.chr t));
  Bytes.to_string b

let bits_blocked k ~block_bits =
  let b = Bytes.create (1 lsl Dpf.domain_bits k) in
  Dpf.eval_bits_blocked k ~block_bits (fun base buf count -> Bytes.blit buf 0 b base count);
  Bytes.to_string b

let eval_vectors () =
  List.concat_map
    (fun (label, d, make) ->
      let k0, k1 = make d in
      let name = Printf.sprintf "eval.%s.d%d" label d in
      let points k =
        String.init 16 (fun i -> Char.chr (Dpf.eval_bit k ((i * 977) land ((1 lsl d) - 1))))
      in
      (name ^ ".all", digest (bits_all k0) ^ digest (bits_all k1))
      :: (name ^ ".points", hex (points k0 ^ points k1))
      :: List.map
           (fun bb ->
             ( Printf.sprintf "%s.blocked%d" name bb,
               digest (bits_blocked k0 ~block_bits:bb) ^ digest (bits_blocked k1 ~block_bits:bb) ))
           (List.filter (fun bb -> bb <= d) [ 0; 3; 6; 7; 9; d ]))
    [
      ("sel", 10, fun d -> Dpf.gen ~domain_bits:d ~alpha:(alpha_for d) (rng "ev-sel"));
      ("sel", 5, fun d -> Dpf.gen ~domain_bits:d ~alpha:(alpha_for d) (rng "ev-sel5"));
      ("sel", 13, fun d -> Dpf.gen ~domain_bits:d ~alpha:(alpha_for d) (rng "ev-sel13"));
      ("val", 9, fun d -> Dpf.gen ~value:"v" ~domain_bits:d ~alpha:(alpha_for d) (rng "ev-val"));
    ]

let value_vectors () =
  let k0, k1 = Dpf.gen ~value:"golden-value-twenty!" ~domain_bits:6 ~alpha:37 (rng "vv") in
  let shares k = String.concat "" (List.init 64 (fun x -> Dpf.eval_value k x)) in
  let seeds k =
    let b = Buffer.create 2048 in
    Dpf.eval_all_seeds k (fun x t s p ->
        Buffer.add_string b (Printf.sprintf "%d:%d:" x t);
        Buffer.add_subbytes b s p 16);
    Buffer.contents b
  in
  [
    ("value.shares", digest (shares k0) ^ digest (shares k1));
    ("value.seeds", digest (seeds k0) ^ digest (seeds k1));
  ]

let split_vectors () =
  let k0, _ = Dpf.gen ~domain_bits:10 ~alpha:613 (rng "split") in
  List.map
    (fun shard_bits ->
      let subs = Distributed.split k0 ~shard_bits in
      ( Printf.sprintf "split.d10.s%d" shard_bits,
        digest (String.concat "" (Array.to_list (Array.map Dpf.serialize subs))) ))
    [ 1; 3; 5; 9 ]

let idpf_vectors () =
  let values = Array.init 6 (fun i -> Printf.sprintf "level-%d" i) in
  let k0, k1 = Idpf.gen ~domain_bits:6 ~alpha:45 ~values (rng "idpf") in
  let dump k =
    let b = Buffer.create 4096 in
    for level = 1 to 6 do
      Idpf.eval_all_level k ~level (fun p s ->
          Buffer.add_string b (Printf.sprintf "%d/%d:%s;" level p s));
      Idpf.eval_all_level_counts k ~level (fun p c ->
          Buffer.add_string b (Printf.sprintf "%d/%d:%Ld;" level p c));
      Buffer.add_string b (Idpf.eval_prefix k ~level (3 land ((1 lsl level) - 1)));
      Buffer.add_string b
        (Int64.to_string (Idpf.eval_prefix_count k ~level (5 land ((1 lsl level) - 1))))
    done;
    Buffer.contents b
  in
  [ ("idpf.d6", digest (dump k0) ^ digest (dump k1)) ]

let server_vectors () =
  List.concat_map
    (fun (d, bucket) ->
      let st = Lw_store.create ~domain_bits:d ~bucket_size:bucket () in
      let w = Lw_store.writer st in
      Lw_store.Writer.fill_random w (Lw_util.Det_rng.of_string_seed "golden-store");
      let server = Lw_pir.Server.of_snapshot (Lw_store.Writer.seal w) in
      let r = rng (Printf.sprintf "srv-%d-%d" d bucket) in
      let keys =
        Array.init 6 (fun i ->
            let k0, k1 = Dpf.gen ~domain_bits:d ~alpha:((i * 37) land ((1 lsl d) - 1)) r in
            if i land 1 = 0 then k0 else k1)
      in
      let name = Printf.sprintf "server.d%d.b%d" d bucket in
      let all answers = digest (String.concat "" (Array.to_list answers)) in
      [
        (name ^ ".answer", all (Array.map (Lw_pir.Server.answer server) keys));
        (name ^ ".batch5", all (Lw_pir.Server.answer_batch server (Array.sub keys 0 5)));
        (name ^ ".batch1", all (Lw_pir.Server.answer_batch server [| keys.(5) |]));
      ])
    [ (6, 48); (10, 256); (9, 4096) ]

let crypto_vectors () =
  let d = Lw_crypto.Drbg.create ~seed:"golden-drbg" in
  let a = Lw_crypto.Drbg.generate d 16 in
  let b = Lw_crypto.Drbg.generate d 100 in
  let c = Lw_crypto.Drbg.generate d 0 in
  let e = Lw_crypto.Drbg.generate d 16 in
  let key = Lw_crypto.Sha256.digest "golden-chacha" in
  let nonce = "golden-nonce" in
  let blocks =
    List.map
      (fun rounds ->
        let out = Bytes.create 64 in
        Lw_crypto.Chacha20.block ~rounds ~key ~nonce ~counter:0xfffffffel out;
        (Printf.sprintf "chacha.block.r%d" rounds, hex (Bytes.to_string out)))
      [ 8; 12; 20 ]
  in
  let msg = String.init 300 (fun i -> Char.chr ((i * 7) land 0xff)) in
  [
    ("drbg.stream", hex (a ^ b ^ c ^ e));
    ("chacha.encrypt", digest (Lw_crypto.Chacha20.encrypt ~key ~nonce ~counter:0xffffffffl msg));
  ]
  @ blocks

(* The channel primitives, recorded from their OCaml bodies: keystreams
   over every length below 580 bytes and one of 1100 across the 32-bit
   counter's wrap, on the named ChaCha20 build; Poly1305 tags and AEAD seals for every length 0-300;
   X25519 on random inputs and on u-coordinates that are at least p or
   have the top bit set, which RFC 7748 reduces and masks. *)
let keystream_vectors ~build =
  let key = Lw_crypto.Sha256.digest "golden-keystream" in
  let nonce = "golden-nonc2" in
  let zeros n = String.make n '\x00' in
  let lengths = List.init 580 Fun.id in
  List.concat_map
    (fun rounds ->
      let enc ~counter n =
        Lw_crypto.Chacha20.encrypt_on ~build ~rounds ~key ~nonce ~counter (zeros n)
      in
      [
        (Printf.sprintf "chacha.keystream.r%d.wrap" rounds, digest (enc ~counter:0xfffffffcl 1100));
        ( Printf.sprintf "chacha.keystream.r%d.lens" rounds,
          digest (String.concat "" (List.map (enc ~counter:7l) lengths)) );
      ])
    [ 8; 12; 20 ]

let channel_vectors () =
  let nonce = "golden-nonc2" in
  let keystreams = keystream_vectors ~build:(Lw_crypto.Chacha20.build ()) in
  let msg n = String.init n (fun i -> Char.chr (((i * 31) + n) land 0xff)) in
  let poly_key n = Lw_crypto.Sha256.digest (Printf.sprintf "golden-poly-%d" n) in
  let tags =
    List.init 301 (fun n -> Lw_crypto.Poly1305.mac ~key:(poly_key n) (msg n))
    |> String.concat ""
  in
  let ff_tags =
    List.init 301 (fun n -> Lw_crypto.Poly1305.mac ~key:(String.make 32 '\xff') (String.make n '\xff'))
    |> String.concat ""
  in
  let seals =
    List.init 301 (fun n ->
        Lw_crypto.Aead.seal ~key:(poly_key n) ~nonce ~aad:(msg (n mod 37)) (msg n))
    |> String.concat ""
  in
  let rng = Lw_util.Det_rng.of_string_seed "golden-x25519" in
  let random32 () = Lw_util.Det_rng.bytes rng 32 in
  let randoms =
    List.init 24 (fun _ ->
        let scalar = random32 () in
        Lw_crypto.X25519.scalarmult ~scalar ~point:(random32 ()))
    |> String.concat ""
  in
  (* little-endian u = p + k for k = 0..18 (>= p), then u with bit 255 set *)
  let u_of ~top k =
    let b = Bytes.make 32 '\xff' in
    Bytes.set b 0 (Char.chr (0xed + k));
    Bytes.set b 31 (if top then '\xff' else '\x7f');
    Bytes.to_string b
  in
  let scalar = Lw_crypto.Sha256.digest "golden-x25519-scalar" in
  let high =
    List.init 19 (fun k -> Lw_crypto.X25519.scalarmult ~scalar ~point:(u_of ~top:false k))
    @ List.init 19 (fun k -> Lw_crypto.X25519.scalarmult ~scalar ~point:(u_of ~top:true k))
    |> String.concat ""
  in
  let top_set =
    let p = Bytes.of_string (Lw_crypto.Sha256.digest "golden-x25519-point") in
    Bytes.set p 31 (Char.chr (Char.code (Bytes.get p 31) lor 0x80));
    Lw_crypto.X25519.scalarmult ~scalar ~point:(Bytes.to_string p)
  in
  keystreams
  @ [
      ("poly1305.lens", digest tags);
      ("poly1305.ff", digest ff_tags);
      ("aead.seal.lens", digest seals);
      ("x25519.random", digest randoms);
      ("x25519.high", digest high);
      ("x25519.top-bit", hex top_set);
      ("x25519.p-plus-1", hex (Lw_crypto.X25519.scalarmult ~scalar ~point:(u_of ~top:false 1)));
    ]

let all () =
  prg_vectors () @ key_vectors () @ eval_vectors () @ value_vectors () @ split_vectors ()
  @ idpf_vectors () @ server_vectors () @ crypto_vectors () @ channel_vectors ()
