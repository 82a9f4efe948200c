type t = { mutable key : string; mutable counter : int64 }

exception No_entropy of string

let create ~seed = { key = Sha256.digest ("lightweb-drbg-v1" ^ seed); counter = 0L }

let entropy_len = 32

let urandom () =
  In_channel.with_open_bin "/dev/urandom" (fun ic -> really_input_string ic entropy_len)

(* No fallback: a generator seeded from the clock and the pid would make
   every DPF root seed guessable, so an unreadable source is an error. *)
let system ?(source = urandom) () =
  let entropy =
    try source () with
    | Sys_error msg -> raise (No_entropy ("entropy source failed: " ^ msg))
    | End_of_file -> raise (No_entropy "entropy source failed: end of file")
  in
  let got = String.length entropy in
  if got < entropy_len then
    raise (No_entropy (Printf.sprintf "entropy source returned %d of %d bytes" got entropy_len));
  create ~seed:entropy

let nonce_of_counter c =
  let b = Bytes.make Chacha20.nonce_len '\x00' in
  Bytes.set_int64_le b 0 c;
  Bytes.unsafe_to_string b

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let nonce = nonce_of_counter t.counter in
  t.counter <- Int64.add t.counter 1L;
  (* one extra block becomes the next key: a simple ratchet *)
  let total = n + 32 in
  let out = Chacha20.encrypt ~key:t.key ~nonce (String.make total '\x00') in
  t.key <- String.sub out n 32;
  String.sub out 0 n

let uniform_int t bound =
  if bound <= 0 then invalid_arg "Drbg.uniform_int: bound must be positive";
  let rec go () =
    let raw = generate t 8 in
    let v = Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le (Bytes.of_string raw) 0) 2) in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then go () else r
  in
  go ()

let reseed t entropy = t.key <- Sha256.digest (t.key ^ entropy)
