type t = Aes_mmo | Chacha of int

let default = Aes_mmo

let name = function
  | Aes_mmo -> "aes-mmo"
  | Chacha r -> Printf.sprintf "chacha%d" r

let of_tag = function
  | 0 -> Some Aes_mmo
  | 1 -> Some (Chacha 8)
  | 2 -> Some (Chacha 12)
  | 3 -> Some (Chacha 20)
  | _ -> None

let to_tag = function
  | Aes_mmo -> 0
  | Chacha 8 -> 1
  | Chacha 12 -> 2
  | Chacha 20 -> 3
  | Chacha r -> invalid_arg (Printf.sprintf "Prg.to_tag: unsupported chacha%d" r)

(* Extract the control bit from the last byte of a 16-byte child seed and
   clear it, so seeds are independent of the bit channel. *)
let take_bit dst pos =
  let b = Char.code (Bytes.get dst (pos + 15)) in
  Bytes.set dst (pos + 15) (Char.unsafe_chr (b land 0xfe));
  b land 1

let chacha_nonce = "dpf-expand!!" (* 12 bytes *)
let convert_nonce = "dpf-convert!" (* 12 bytes *)
let terminal_nonce = "dpf-terminal" (* 12 bytes *)

let expand_aes ~src ~src_pos ~dst ~dst_pos =
  let key = Lw_crypto.Aes128.mmo_fixed_key in
  Lw_crypto.Aes128.mmo_hash_into key ~tweak:1 ~src ~src_pos ~dst ~dst_pos;
  Lw_crypto.Aes128.mmo_hash_into key ~tweak:2 ~src ~src_pos ~dst ~dst_pos:(dst_pos + 16)

(* One ChaCha block keyed by the 16-byte seed, padded to a 32-byte key. *)
let chacha_block rounds ~nonce ~src ~src_pos =
  let key = Bytes.create 32 in
  Bytes.blit src src_pos key 0 16;
  Bytes.blit src src_pos key 16 16;
  let block = Bytes.create Lw_crypto.Chacha20.block_len in
  Lw_crypto.Chacha20.block ~rounds ~key:(Bytes.unsafe_to_string key) ~nonce ~counter:0l block;
  block

(* one block covers both children *)
let expand_chacha rounds ~src ~src_pos ~dst ~dst_pos =
  Bytes.blit (chacha_block rounds ~nonce:chacha_nonce ~src ~src_pos) 0 dst dst_pos 32

let expand_into t ~src ~src_pos ~dst ~dst_pos =
  (match t with
  | Aes_mmo -> expand_aes ~src ~src_pos ~dst ~dst_pos
  | Chacha rounds -> expand_chacha rounds ~src ~src_pos ~dst ~dst_pos);
  let tl = take_bit dst dst_pos in
  let tr = take_bit dst (dst_pos + 16) in
  tl lor (tr lsl 1)

let terminal_len = 16

(* A fresh tweak (AES-MMO) or nonce (ChaCha) separates the terminal call
   from both child expansions of the same seed. *)
let terminal_into t ~src ~src_pos ~dst ~dst_pos =
  match t with
  | Aes_mmo ->
      Lw_crypto.Aes128.mmo_hash_into Lw_crypto.Aes128.mmo_fixed_key ~tweak:3 ~src ~src_pos ~dst
        ~dst_pos
  | Chacha rounds ->
      Bytes.blit (chacha_block rounds ~nonce:terminal_nonce ~src ~src_pos) 0 dst dst_pos terminal_len

let convert t ~seed ~pos ~len =
  let rounds = match t with Aes_mmo -> 20 | Chacha r -> r in
  let key = Bytes.create 32 in
  Bytes.blit seed pos key 0 16;
  Bytes.blit seed pos key 16 16;
  Lw_crypto.Chacha20.encrypt ~rounds
    ~key:(Bytes.unsafe_to_string key)
    ~nonce:convert_nonce (String.make len '\x00')
