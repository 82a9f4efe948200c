(* Test vectors from FIPS-197, FIPS 180-4, RFC 8439, RFC 4231 and the
   SipHash reference implementation, plus property tests. *)

let hex = Lw_util.Hex.decode
let to_hex = Lw_util.Hex.encode
let check_hex msg expected actual = Alcotest.(check string) msg expected (to_hex actual)

(* ------------------------- SHA-256 ------------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Lw_crypto.Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Lw_crypto.Sha256.digest "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Lw_crypto.Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  let ctx = Lw_crypto.Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Lw_crypto.Sha256.update ctx chunk
  done;
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Lw_crypto.Sha256.final ctx)

let test_sha256_incremental_chunking () =
  (* hashing in any chunking must match the one-shot digest *)
  let msg = String.init 1097 (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
  let oneshot = Lw_crypto.Sha256.digest msg in
  List.iter
    (fun chunk_size ->
      let ctx = Lw_crypto.Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length msg do
        let len = min chunk_size (String.length msg - !pos) in
        Lw_crypto.Sha256.update ctx (String.sub msg !pos len);
        pos := !pos + len
      done;
      check_hex (Printf.sprintf "chunk=%d" chunk_size) (to_hex oneshot)
        (Lw_crypto.Sha256.final ctx))
    [ 1; 7; 63; 64; 65; 128; 1000 ]

(* ------------------------- HMAC / HKDF ------------------------- *)

let test_hmac_rfc4231 () =
  check_hex "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Lw_crypto.Hmac.hmac_sha256 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Lw_crypto.Hmac.hmac_sha256 ~key:"Jefe" "what do ya want for nothing?");
  check_hex "tc3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Lw_crypto.Hmac.hmac_sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hkdf_rfc5869_case1 () =
  let ikm = String.make 22 '\x0b' in
  let salt = hex "000102030405060708090a0b0c" in
  let info = hex "f0f1f2f3f4f5f6f7f8f9" in
  let okm = Lw_crypto.Hmac.hkdf ~salt ~info ~len:42 ikm in
  check_hex "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    okm

let test_hkdf_lengths () =
  let prk = Lw_crypto.Hmac.hkdf_extract "some input keying material" in
  List.iter
    (fun len ->
      Alcotest.(check int) (Printf.sprintf "len %d" len) len
        (String.length (Lw_crypto.Hmac.hkdf_expand ~prk ~info:"x" ~len)))
    [ 0; 1; 31; 32; 33; 64; 100; 255 ];
  (* prefixes must agree: expand is a stream *)
  let a = Lw_crypto.Hmac.hkdf_expand ~prk ~info:"x" ~len:100 in
  let b = Lw_crypto.Hmac.hkdf_expand ~prk ~info:"x" ~len:40 in
  Alcotest.(check string) "prefix" b (String.sub a 0 40)

(* ------------------------- ChaCha20 ------------------------- *)

let rfc8439_key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let test_chacha20_block () =
  let nonce = hex "000000090000004a00000000" in
  let out = Bytes.create 64 in
  Lw_crypto.Chacha20.block ~key:rfc8439_key ~nonce ~counter:1l out;
  check_hex "keystream"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Bytes.to_string out)

let sunscreen =
  "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."

let test_chacha20_encrypt () =
  let nonce = hex "000000000000004a00000000" in
  let ct = Lw_crypto.Chacha20.encrypt ~key:rfc8439_key ~nonce ~counter:1l sunscreen in
  check_hex "ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    ct;
  Alcotest.(check string) "roundtrip" sunscreen
    (Lw_crypto.Chacha20.encrypt ~key:rfc8439_key ~nonce ~counter:1l ct)

let test_chacha20_reduced_rounds () =
  (* reduced rounds still roundtrip and differ from 20-round output *)
  let nonce = hex "000000000000004a00000000" in
  let ct8 = Lw_crypto.Chacha20.encrypt ~rounds:8 ~key:rfc8439_key ~nonce sunscreen in
  let ct20 = Lw_crypto.Chacha20.encrypt ~key:rfc8439_key ~nonce sunscreen in
  Alcotest.(check bool) "differs" true (not (String.equal ct8 ct20));
  Alcotest.(check string) "roundtrip8" sunscreen
    (Lw_crypto.Chacha20.encrypt ~rounds:8 ~key:rfc8439_key ~nonce ct8)

(* ------------------------- Poly1305 / AEAD ------------------------- *)

let test_poly1305_rfc8439 () =
  let key = hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  check_hex "tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Lw_crypto.Poly1305.mac ~key "Cryptographic Forum Research Group")

let test_aead_rfc8439 () =
  let key = hex "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f" in
  let nonce = hex "070000004041424344454647" in
  let aad = hex "50515253c0c1c2c3c4c5c6c7" in
  let sealed = Lw_crypto.Aead.seal ~key ~nonce ~aad sunscreen in
  check_hex "ct||tag"
    ("d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d63dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b3692ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc3ff4def08e4b7a9de576d26586cec64b6116"
    ^ "1ae10b594f09e26a7e902ecbd0600691")
    sealed;
  (match Lw_crypto.Aead.open_ ~key ~nonce ~aad sealed with
  | Some pt -> Alcotest.(check string) "decrypts" sunscreen pt
  | None -> Alcotest.fail "tag rejected");
  (* any single-byte corruption must be rejected *)
  let corrupt i =
    let b = Bytes.of_string sealed in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Lw_crypto.Aead.open_ ~key ~nonce ~aad (Bytes.to_string b)
  in
  List.iter
    (fun i ->
      match corrupt i with
      | None -> ()
      | Some _ -> Alcotest.fail (Printf.sprintf "corruption at %d accepted" i))
    [ 0; String.length sunscreen / 2; String.length sealed - 1 ];
  (* wrong AAD rejected *)
  Alcotest.(check bool) "aad binds" true
    (Lw_crypto.Aead.open_ ~key ~nonce ~aad:"other" sealed = None)

let test_aead_empty () =
  let key = String.make 32 '\x01' and nonce = String.make 12 '\x02' in
  let sealed = Lw_crypto.Aead.seal ~key ~nonce "" in
  Alcotest.(check int) "tag only" 16 (String.length sealed);
  Alcotest.(check (option string)) "roundtrip" (Some "")
    (Lw_crypto.Aead.open_ ~key ~nonce sealed)

(* ------------------------- AES-128 ------------------------- *)

let test_aes128_fips197 () =
  let key = Lw_crypto.Aes128.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  check_hex "fips-197" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Lw_crypto.Aes128.encrypt_block key (hex "00112233445566778899aabbccddeeff"))

let test_aes128_sp800_38a () =
  let key = Lw_crypto.Aes128.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "block1" "3ad77bb40d7a3660a89ecaf32466ef97"
    (Lw_crypto.Aes128.encrypt_block key (hex "6bc1bee22e409f96e93d7e117393172a"));
  check_hex "block2" "f5d3d58503b9699de785895a96fdbaaf"
    (Lw_crypto.Aes128.encrypt_block key (hex "ae2d8a571e03ac9c9eb76fac45af8e51"))

let test_aes128_mmo () =
  let k = Lw_crypto.Aes128.mmo_fixed_key in
  let s = Lw_crypto.Sha256.digest "x" in
  let s16 = String.sub s 0 16 in
  let h0 = Lw_crypto.Aes128.mmo_hash k ~tweak:0 s16 in
  let h1 = Lw_crypto.Aes128.mmo_hash k ~tweak:1 s16 in
  Alcotest.(check int) "len" 16 (String.length h0);
  Alcotest.(check bool) "tweak separates" true (not (String.equal h0 h1));
  Alcotest.(check string) "deterministic" h0 (Lw_crypto.Aes128.mmo_hash k ~tweak:0 s16)

(* ------------------------- SipHash ------------------------- *)

let test_siphash_reference () =
  (* Appendix A of the SipHash paper: key 00..0f, messages 00,01,..,n-1 *)
  let key = hex "000102030405060708090a0b0c0d0e0f" in
  let expected =
    [|
      0x726fdb47dd0e0e31L; 0x74f839c593dc67fdL; 0x0d6c8009d9a94f5aL; 0x85676696d7fb7e2dL;
      0xcf2794e0277187b7L; 0x18765564cd99a68dL; 0xcbc9466e58fee3ceL; 0xab0200f58b01d137L;
      0x93f5f5799a932462L; 0x9e0082df0ba9e4b0L;
    |]
  in
  Array.iteri
    (fun n want ->
      let msg = String.init n Char.chr in
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Printf.sprintf "%016Lx" want)
        (Printf.sprintf "%016Lx" (Lw_crypto.Siphash.hash ~key msg)))
    expected

let test_siphash_domain () =
  let key = String.make 16 '\x07' in
  for bits = 1 to 24 do
    let v = Lw_crypto.Siphash.to_domain ~key ~domain_bits:bits "example.com/page" in
    Alcotest.(check bool)
      (Printf.sprintf "in range bits=%d" bits)
      true
      (v >= 0 && v < 1 lsl bits)
  done

(* ------------------------- DRBG / CT ------------------------- *)

let test_drbg_determinism () =
  let d1 = Lw_crypto.Drbg.create ~seed:"fixed" in
  let d2 = Lw_crypto.Drbg.create ~seed:"fixed" in
  Alcotest.(check string) "same stream" (Lw_crypto.Drbg.generate d1 100)
    (Lw_crypto.Drbg.generate d2 100);
  Alcotest.(check bool) "stream advances" true
    (not (String.equal (Lw_crypto.Drbg.generate d1 100) (Lw_crypto.Drbg.generate d2 50 ^ Lw_crypto.Drbg.generate d2 50)))

let test_drbg_ratchet () =
  (* two different seeds must diverge *)
  let a = Lw_crypto.Drbg.create ~seed:"a" and b = Lw_crypto.Drbg.create ~seed:"b" in
  Alcotest.(check bool) "diverge" true
    (not (String.equal (Lw_crypto.Drbg.generate a 32) (Lw_crypto.Drbg.generate b 32)))

let test_drbg_uniform_int () =
  let d = Lw_crypto.Drbg.system () in
  for _ = 1 to 200 do
    let v = Lw_crypto.Drbg.uniform_int d 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_ct_equal () =
  Alcotest.(check bool) "eq" true (Lw_crypto.Ct.equal "abc" "abc");
  Alcotest.(check bool) "neq" false (Lw_crypto.Ct.equal "abc" "abd");
  Alcotest.(check bool) "len" false (Lw_crypto.Ct.equal "abc" "abcd");
  Alcotest.(check bool) "empty" true (Lw_crypto.Ct.equal "" "")

let test_ct_select () =
  Alcotest.(check string) "true" "aaa" (Lw_crypto.Ct.select true "aaa" "bbb");
  Alcotest.(check string) "false" "bbb" (Lw_crypto.Ct.select false "aaa" "bbb")

let test_ct_mask_of_bit () =
  Alcotest.(check int) "bit 0" 0x00 (Lw_crypto.Ct.mask_of_bit 0);
  Alcotest.(check int) "bit 1" 0xff (Lw_crypto.Ct.mask_of_bit 1);
  (* only the low bit participates *)
  Alcotest.(check int) "even" 0x00 (Lw_crypto.Ct.mask_of_bit 2);
  Alcotest.(check int) "odd" 0xff (Lw_crypto.Ct.mask_of_bit 7)

(* deterministic property coverage via Det_rng: Ct.equal must agree with
   String.equal everywhere, and select must pick the right arm for every
   condition and length *)
let test_ct_equal_matches_string_equal () =
  let rng = Lw_util.Det_rng.of_string_seed "ct-equal-prop" in
  for _ = 1 to 500 do
    let n = Lw_util.Det_rng.int rng 65 in
    let a = Lw_util.Det_rng.bytes rng n in
    (* equal pair *)
    Alcotest.(check bool) "same string" true (Lw_crypto.Ct.equal a a);
    (* perturb one byte: must compare unequal exactly like String.equal *)
    if n > 0 then begin
      let i = Lw_util.Det_rng.int rng n in
      let b = Bytes.of_string a in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      let b = Bytes.to_string b in
      Alcotest.(check bool) "perturbed" (String.equal a b) (Lw_crypto.Ct.equal a b)
    end;
    (* independent random pair, frequently different lengths *)
    let c = Lw_util.Det_rng.bytes rng (Lw_util.Det_rng.int rng 65) in
    Alcotest.(check bool) "random pair" (String.equal a c) (Lw_crypto.Ct.equal a c)
  done

let test_ct_select_all_lengths () =
  let rng = Lw_util.Det_rng.of_string_seed "ct-select-prop" in
  for n = 0 to 64 do
    let a = Lw_util.Det_rng.bytes rng n in
    let b = Lw_util.Det_rng.bytes rng n in
    Alcotest.(check string) "cond true" a (Lw_crypto.Ct.select true a b);
    Alcotest.(check string) "cond false" b (Lw_crypto.Ct.select false a b);
    Alcotest.(check string) "bit 1" a (Lw_crypto.Ct.select_int 1 a b);
    Alcotest.(check string) "bit 0" b (Lw_crypto.Ct.select_int 0 a b)
  done;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Ct.select_int: length mismatch") (fun () ->
      ignore (Lw_crypto.Ct.select true "a" "bb"))

(* ------------------------- X25519 ------------------------- *)

let test_x25519_rfc7748_vectors () =
  (* §5.2 vector 1 *)
  check_hex "vector 1" "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    (Lw_crypto.X25519.scalarmult
       ~scalar:(hex "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
       ~point:(hex "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"));
  (* §5.2 vector 2 *)
  check_hex "vector 2" "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
    (Lw_crypto.X25519.scalarmult
       ~scalar:(hex "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
       ~point:(hex "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"))

let test_x25519_rfc7748_dh () =
  (* §6.1: Alice and Bob *)
  let a = hex "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a" in
  let b = hex "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb" in
  let ka = Lw_crypto.X25519.public_of_secret a in
  let kb = Lw_crypto.X25519.public_of_secret b in
  check_hex "K_A" "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a" ka;
  check_hex "K_B" "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f" kb;
  let sa = Result.get_ok (Lw_crypto.X25519.shared_secret ~secret:a ~public:kb) in
  let sb = Result.get_ok (Lw_crypto.X25519.shared_secret ~secret:b ~public:ka) in
  check_hex "shared" "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742" sa;
  Alcotest.(check string) "commutes" sa sb

let test_x25519_iterated_1000 () =
  (* RFC 7748 §5.2 iteration test: after 1 iteration and 1000 iterations *)
  let k = ref Lw_crypto.X25519.base_point and u = ref Lw_crypto.X25519.base_point in
  let step () =
    let r = Lw_crypto.X25519.scalarmult ~scalar:!k ~point:!u in
    u := !k;
    k := r
  in
  step ();
  check_hex "1 iteration" "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079" !k;
  for _ = 2 to 1000 do
    step ()
  done;
  check_hex "1000 iterations" "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51" !k

let test_x25519_low_order_rejected () =
  let zero_point = String.make 32 '\x00' in
  let sk = Lw_crypto.Sha256.digest "some secret" in
  Alcotest.(check bool) "all-zero rejected" true
    (Result.is_error (Lw_crypto.X25519.shared_secret ~secret:sk ~public:zero_point))

let test_x25519_keypair () =
  let rng = Lw_crypto.Drbg.create ~seed:"kp" in
  let kp = Lw_crypto.X25519.keypair rng in
  Alcotest.(check int) "secret len" 32 (String.length kp.Lw_crypto.X25519.secret);
  Alcotest.(check int) "public len" 32 (String.length kp.Lw_crypto.X25519.public);
  Alcotest.(check string) "public derivable" kp.Lw_crypto.X25519.public
    (Lw_crypto.X25519.public_of_secret kp.Lw_crypto.X25519.secret)

(* ------------------------- Properties ------------------------- *)

let prop_chacha_roundtrip =
  QCheck.Test.make ~name:"chacha20 encrypt is an involution" ~count:100
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun msg ->
      let key = Lw_crypto.Sha256.digest "k" in
      let nonce = String.make 12 '\x05' in
      let ct = Lw_crypto.Chacha20.encrypt ~key ~nonce msg in
      String.equal msg (Lw_crypto.Chacha20.encrypt ~key ~nonce ct))

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead seal/open roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 40)))
    (fun (msg, aad) ->
      let key = Lw_crypto.Sha256.digest "aead" in
      let nonce = String.make 12 '\x09' in
      match Lw_crypto.Aead.open_ ~key ~nonce ~aad (Lw_crypto.Aead.seal ~key ~nonce ~aad msg) with
      | Some pt -> String.equal pt msg
      | None -> false)

let prop_poly1305_key_sensitivity =
  QCheck.Test.make ~name:"poly1305 distinct keys give distinct tags" ~count:50
    QCheck.(string_of_size Gen.(1 -- 100))
    (fun msg ->
      let k1 = Lw_crypto.Sha256.digest "k1" and k2 = Lw_crypto.Sha256.digest "k2" in
      not (String.equal (Lw_crypto.Poly1305.mac ~key:k1 msg) (Lw_crypto.Poly1305.mac ~key:k2 msg)))

let prop_aes_permutation =
  QCheck.Test.make ~name:"aes distinct blocks encrypt to distinct blocks" ~count:100
    QCheck.(pair (string_of_size (QCheck.Gen.return 16)) (string_of_size (QCheck.Gen.return 16)))
    (fun (a, b) ->
      let key = Lw_crypto.Aes128.expand_key (String.sub (Lw_crypto.Sha256.digest "aes") 0 16) in
      String.equal a b
      || not (String.equal (Lw_crypto.Aes128.encrypt_block key a) (Lw_crypto.Aes128.encrypt_block key b)))

let prop_hmac_distinct_keys =
  QCheck.Test.make ~name:"hmac distinct keys give distinct macs" ~count:50
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun msg ->
      not
        (String.equal
           (Lw_crypto.Hmac.hmac_sha256 ~key:"k1" msg)
           (Lw_crypto.Hmac.hmac_sha256 ~key:"k2" msg)))

let prop_x25519_dh_commutes =
  QCheck.Test.make ~name:"x25519 DH commutes" ~count:15
    QCheck.(pair (string_of_size (QCheck.Gen.return 32)) (string_of_size (QCheck.Gen.return 32)))
    (fun (a, b) ->
      let ka = Lw_crypto.X25519.public_of_secret a in
      let kb = Lw_crypto.X25519.public_of_secret b in
      String.equal
        (Lw_crypto.X25519.scalarmult ~scalar:a ~point:kb)
        (Lw_crypto.X25519.scalarmult ~scalar:b ~point:ka))

let props = List.map QCheck_alcotest.to_alcotest
    [ prop_chacha_roundtrip; prop_aead_roundtrip; prop_poly1305_key_sensitivity;
      prop_aes_permutation; prop_hmac_distinct_keys; prop_x25519_dh_commutes ]

let () =
  Alcotest.run "lw_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental chunking" `Quick test_sha256_incremental_chunking;
        ] );
      ( "hmac-hkdf",
        [
          Alcotest.test_case "rfc4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "hkdf rfc5869 case 1" `Quick test_hkdf_rfc5869_case1;
          Alcotest.test_case "hkdf lengths" `Quick test_hkdf_lengths;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "rfc8439 block" `Quick test_chacha20_block;
          Alcotest.test_case "rfc8439 encrypt" `Quick test_chacha20_encrypt;
          Alcotest.test_case "reduced rounds" `Quick test_chacha20_reduced_rounds;
        ] );
      ( "poly1305-aead",
        [
          Alcotest.test_case "poly1305 rfc8439" `Quick test_poly1305_rfc8439;
          Alcotest.test_case "aead rfc8439" `Quick test_aead_rfc8439;
          Alcotest.test_case "aead empty" `Quick test_aead_empty;
        ] );
      ( "aes128",
        [
          Alcotest.test_case "fips-197" `Quick test_aes128_fips197;
          Alcotest.test_case "sp800-38a" `Quick test_aes128_sp800_38a;
          Alcotest.test_case "mmo hash" `Quick test_aes128_mmo;
        ] );
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick test_siphash_reference;
          Alcotest.test_case "domain mapping" `Quick test_siphash_domain;
        ] );
      ( "drbg-ct",
        [
          Alcotest.test_case "drbg determinism" `Quick test_drbg_determinism;
          Alcotest.test_case "drbg ratchet" `Quick test_drbg_ratchet;
          Alcotest.test_case "drbg uniform_int" `Quick test_drbg_uniform_int;
          Alcotest.test_case "ct equal" `Quick test_ct_equal;
          Alcotest.test_case "ct select" `Quick test_ct_select;
          Alcotest.test_case "ct mask_of_bit" `Quick test_ct_mask_of_bit;
          Alcotest.test_case "ct equal =~ String.equal" `Quick test_ct_equal_matches_string_equal;
          Alcotest.test_case "ct select all lengths" `Quick test_ct_select_all_lengths;
        ] );
      ( "x25519",
        [
          Alcotest.test_case "rfc7748 vectors" `Quick test_x25519_rfc7748_vectors;
          Alcotest.test_case "rfc7748 DH" `Quick test_x25519_rfc7748_dh;
          Alcotest.test_case "iterated x1000" `Slow test_x25519_iterated_1000;
          Alcotest.test_case "low-order rejected" `Quick test_x25519_low_order_rejected;
          Alcotest.test_case "keypair" `Quick test_x25519_keypair;
        ] );
      ("properties", props);
    ]
