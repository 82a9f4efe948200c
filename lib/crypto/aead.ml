(* Seal and open run in one C call each (channel_stubs.c): the one-time
   key, the keystream and the Poly1305 tag over the padded AAD and
   ciphertext, with no intermediate buffer. *)

let key_len = 32
let nonce_len = 12
let tag_len = 16

external c_seal : int -> string -> string -> string -> string -> Bytes.t -> unit
  = "lw_aead_seal_byte" "lw_aead_seal"
[@@noalloc]

external c_open : int -> string -> string -> string -> string -> Bytes.t -> int
  = "lw_aead_open_byte" "lw_aead_open"
[@@noalloc]

let build = Chacha20.build_index (Chacha20.build ())

let check name ~key ~nonce =
  if String.length key <> key_len then invalid_arg ("Aead." ^ name ^ ": key must be 32 bytes");
  if String.length nonce <> nonce_len then invalid_arg ("Aead." ^ name ^ ": nonce must be 12 bytes")

let seal ~key ~nonce ?(aad = "") pt =
  check "seal" ~key ~nonce;
  let out = Bytes.create (String.length pt + tag_len) in
  c_seal build key nonce aad pt out;
  Bytes.unsafe_to_string out

(* The tag is compared in C without a branch; only its verdict, which
   the caller learns anyway, is branched on here. *)
let open_ ~key ~nonce ?(aad = "") ct_and_tag =
  check "open_" ~key ~nonce;
  let n = String.length ct_and_tag in
  if n < tag_len then None
  else begin
    let pt = Bytes.create (n - tag_len) in
    if c_open build key nonce aad ct_and_tag pt = 1 then Some (Bytes.unsafe_to_string pt) else None
  end
