(* Poly1305 in C (channel_stubs.c): 44/44/42-bit limbs in 64-bit words
   with 128-bit products. *)

let tag_len = 16

external c_mac : string -> string -> Bytes.t -> unit = "lw_poly1305_mac" [@@noalloc]

let mac ~key msg =
  if String.length key <> 32 then invalid_arg "Poly1305.mac: key must be 32 bytes";
  let tag = Bytes.create tag_len in
  c_mac key msg tag;
  Bytes.unsafe_to_string tag
