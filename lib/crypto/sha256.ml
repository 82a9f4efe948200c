let digest_len = 32

(* Round constants: fractional parts of the cube roots of the first 64
   primes (FIPS 180-4 table). *)
let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
    0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
    0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
    0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
    0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
    0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
    0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
    0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
    0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 chaining words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* total bytes absorbed *)
  w : int32 array; (* per-context message schedule, for thread safety *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
        0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0L;
    w = Array.make 64 0l;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand

let compress ctx block pos =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Bytes.get_int32_be block (pos + (4 * t))
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 ^% rotr w.(t - 15) 18 ^% Int32.shift_right_logical w.(t - 15) 3 in
    let s1 = rotr w.(t - 2) 17 ^% rotr w.(t - 2) 19 ^% Int32.shift_right_logical w.(t - 2) 10 in
    w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
  let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
    let ch = (!e &% !f) ^% (Int32.lognot !e &% !g) in
    let temp1 = !hh +% s1 +% ch +% k.(t) +% w.(t) in
    let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
    let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
    let temp2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  ctx.h.(0) <- ctx.h.(0) +% !a;
  ctx.h.(1) <- ctx.h.(1) +% !b;
  ctx.h.(2) <- ctx.h.(2) +% !c;
  ctx.h.(3) <- ctx.h.(3) +% !d;
  ctx.h.(4) <- ctx.h.(4) +% !e;
  ctx.h.(5) <- ctx.h.(5) +% !f;
  ctx.h.(6) <- ctx.h.(6) +% !g;
  ctx.h.(7) <- ctx.h.(7) +% !hh

let update_bytes ctx data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Sha256.update_bytes: range out of bounds";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let consumed = ref 0 in
  (* top up a partial buffer first *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit data pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    consumed := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !consumed >= 64 do
    compress ctx data (pos + !consumed);
    consumed := !consumed + 64
  done;
  let rest = len - !consumed in
  if rest > 0 then begin
    Bytes.blit data (pos + !consumed) ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let final ctx =
  let bit_len = Int64.mul ctx.total 8L in
  (* padding: 0x80, zeros to 56 mod 64, then the 64-bit length *)
  let pad_len =
    let r = (ctx.buf_len + 1 + 8) mod 64 in
    if r = 0 then 1 + 8 else 1 + 8 + (64 - r)
  in
  let pad = Bytes.make pad_len '\x00' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad (pad_len - 8) bit_len;
  (* bypass the total counter: feed pad blocks directly *)
  let take = min (64 - ctx.buf_len) pad_len in
  Bytes.blit pad 0 ctx.buf ctx.buf_len take;
  compress ctx ctx.buf 0;
  if take < pad_len then compress ctx pad take;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) ctx.h.(i)
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  final ctx
