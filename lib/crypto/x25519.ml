(* The RFC 7748 ladder in C (channel_stubs.c): five 51-bit limbs with
   128-bit products, the conditional swap a mask. *)

let key_len = 32

external c_scalarmult : string -> string -> Bytes.t -> unit = "lw_x25519" [@@noalloc]

let scalarmult ~scalar ~point =
  if String.length scalar <> 32 then invalid_arg "X25519.scalarmult: scalar must be 32 bytes";
  if String.length point <> 32 then invalid_arg "X25519.scalarmult: point must be 32 bytes";
  let out = Bytes.create 32 in
  c_scalarmult scalar point out;
  Bytes.unsafe_to_string out

let base_point =
  let b = Bytes.make 32 '\x00' in
  Bytes.set b 0 '\x09';
  Bytes.unsafe_to_string b

let public_of_secret secret = scalarmult ~scalar:secret ~point:base_point

type keypair = { secret : string; public : string }

let keypair rng =
  let secret = Drbg.generate rng 32 in
  { secret; public = public_of_secret secret }

let shared_secret ~secret ~public =
  let shared = scalarmult ~scalar:secret ~point:public in
  if Lw_util.Xorbuf.is_zero shared then Error "low-order public key (all-zero shared secret)"
  else Ok shared
