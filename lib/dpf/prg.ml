(* The seeds and the control bits below them are the DPF's secret state:
   they may be copied, XORed and masked, never used as a table index or a
   branch condition. lw-lint's taint rule enforces that below. *)
(* lw-lint: secret src seed ts *)

(* Extract the control bit from the last byte of a 16-byte child seed and
   clear it, so seeds are independent of the bit channel. *)
let take_bit dst pos =
  let b = Char.code (Bytes.get dst (pos + 15)) in
  Bytes.set dst (pos + 15) (Char.unsafe_chr (b land 0xfe));
  b land 1

let convert_nonce = "dpf-convert!" (* 12 bytes *)

let aes_key = Lw_crypto.Aes128.mmo_fixed_key

let expand_into ~src ~src_pos ~dst ~dst_pos =
  Lw_crypto.Aes128.mmo_hash_into aes_key ~tweak:1 ~src ~src_pos ~dst ~dst_pos;
  Lw_crypto.Aes128.mmo_hash_into aes_key ~tweak:2 ~src ~src_pos ~dst ~dst_pos:(dst_pos + 16);
  let tl = take_bit dst dst_pos in
  let tr = take_bit dst (dst_pos + 16) in
  tl lor (tr lsl 1)

let terminal_len = 16

(* A fresh tweak separates the terminal call from both child expansions
   of the same seed. *)
let terminal_into ~src ~src_pos ~dst ~dst_pos =
  Lw_crypto.Aes128.mmo_hash_into aes_key ~tweak:3 ~src ~src_pos ~dst ~dst_pos

let expand_level ~src ~src_pos ~ts ~ts_pos ~n ~cw ~cw_pos ~cw_bits ~dst ~t_out =
  Lw_crypto.Aes128.mmo_level aes_key ~src ~src_pos ~ts ~ts_pos ~n ~cw ~cw_pos ~cw_bits ~dst ~t_out

let leaves ~src ~src_pos ~ts ~ts_pos ~n ~cw ~from ~count ~dst ~dst_pos =
  Lw_crypto.Aes128.mmo_leaves aes_key ~src ~src_pos ~ts ~ts_pos ~n ~cw ~from ~count ~dst ~dst_pos

let convert ~seed ~pos ~len =
  let key = Bytes.create 32 in
  Bytes.blit seed pos key 0 16;
  Bytes.blit seed pos key 16 16;
  Lw_crypto.Chacha20.encrypt ~rounds:20 ~key:(Bytes.unsafe_to_string key) ~nonce:convert_nonce
    (String.make len '\x00')
