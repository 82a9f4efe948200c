let key_len = 32
let nonce_len = 12
let block_len = 64

(* Every 32-bit word lives in the low bits of an immediate [int] (OCaml's
   int is at least 63 bits on every supported target), so no operation
   on the state allocates: a block runs behind every [Drbg.generate],
   and so behind every DPF root seed a client draws. *)
let mask32 = 0xffffffff
let rotl x k = ((x lsl k) lor (x lsr (32 - k))) land mask32

(* The ChaCha state is 16 32-bit words:
     0..3   constants "expa" "nd 3" "2-by" "te k"
     4..11  key
     12     counter
     13..15 nonce *)
let sigma0 = 0x61707865
let sigma1 = 0x3320646e
let sigma2 = 0x79622d32
let sigma3 = 0x6b206574

(* [a]..[d] are constant indices below 16 into the 16-word state. *)
let quarter_round (st : int array) a b c d =
  let va = (Array.unsafe_get st a + Array.unsafe_get st b) land mask32 in
  let vd = rotl (Array.unsafe_get st d lxor va) 16 in
  let vc = (Array.unsafe_get st c + vd) land mask32 in
  let vb = rotl (Array.unsafe_get st b lxor vc) 12 in
  let va = (va + vb) land mask32 in
  let vd = rotl (vd lxor va) 8 in
  let vc = (vc + vd) land mask32 in
  Array.unsafe_set st a va;
  Array.unsafe_set st b (rotl (vb lxor vc) 7);
  Array.unsafe_set st c vc;
  Array.unsafe_set st d vd

let double_round st =
  quarter_round st 0 4 8 12;
  quarter_round st 1 5 9 13;
  quarter_round st 2 6 10 14;
  quarter_round st 3 7 11 15;
  quarter_round st 0 5 10 15;
  quarter_round st 1 6 11 12;
  quarter_round st 2 7 8 13;
  quarter_round st 3 4 9 14

let load32 s off = String.get_uint16_le s off lor (String.get_uint16_le s (off + 2) lsl 16)

let init_state ~key ~nonce ~counter =
  let st = Array.make 16 0 in
  st.(0) <- sigma0;
  st.(1) <- sigma1;
  st.(2) <- sigma2;
  st.(3) <- sigma3;
  for i = 0 to 7 do
    st.(4 + i) <- load32 key (4 * i)
  done;
  st.(12) <- counter land mask32;
  for i = 0 to 2 do
    st.(13 + i) <- load32 nonce (4 * i)
  done;
  st

(* One keystream block for an int counter, arguments already checked. *)
let block_at ~rounds ~key ~nonce ~counter out =
  let init = init_state ~key ~nonce ~counter in
  let st = Array.copy init in
  for _ = 1 to rounds / 2 do
    double_round st
  done;
  for i = 0 to 15 do
    let w = (st.(i) + init.(i)) land mask32 in
    Bytes.set_uint16_le out (4 * i) (w land 0xffff);
    Bytes.set_uint16_le out ((4 * i) + 2) (w lsr 16)
  done

let check ~rounds ~key ~nonce out =
  if String.length key <> key_len then invalid_arg "Chacha20.block: key must be 32 bytes";
  if String.length nonce <> nonce_len then invalid_arg "Chacha20.block: nonce must be 12 bytes";
  if Bytes.length out < block_len then invalid_arg "Chacha20.block: output too small";
  if rounds <= 0 || rounds mod 2 <> 0 then invalid_arg "Chacha20.block: rounds must be even"

(* the one conversion from the interface's [int32] *)
let counter_of c = Int32.to_int c land mask32

let block ?(rounds = 20) ~key ~nonce ~counter out =
  check ~rounds ~key ~nonce out;
  block_at ~rounds ~key ~nonce ~counter:(counter_of counter) out

let encrypt ?(rounds = 20) ~key ~nonce ?(counter = 0l) msg =
  let n = String.length msg in
  let out = Bytes.of_string msg in
  let ks = Bytes.create block_len in
  let blocks = (n + block_len - 1) / block_len in
  let counter = counter_of counter in
  if blocks > 0 then check ~rounds ~key ~nonce ks;
  for b = 0 to blocks - 1 do
    (* the block counter wraps at 32 bits, as RFC 8439's does *)
    block_at ~rounds ~key ~nonce ~counter:(counter + b) ks;
    let off = b * block_len in
    let len = min block_len (n - off) in
    Lw_util.Xorbuf.xor_into ~src:ks ~src_pos:0 ~dst:out ~dst_pos:off ~len
  done;
  Bytes.unsafe_to_string out
