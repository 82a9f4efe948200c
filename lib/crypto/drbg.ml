(* [key] is overwritten in place by each draw's ratchet, in C. *)
type t = { key : Bytes.t; mutable counter : int }

(* One draw in C (channel_stubs.c) on the given ChaCha20 build: the
   keystream under [key] and the nonce [counter], [len] bytes into the
   buffer at [pos], the 32 after them over [key]. It reads no OCaml value
   but its arguments and allocates nothing; [generate_into] checks the
   range first. *)
external c_draw : int -> Bytes.t -> int -> Bytes.t -> int -> int -> unit
  = "lw_chacha_drbg_byte" "lw_chacha_drbg"
[@@noalloc]

let build = Chacha20.build_index (Chacha20.build ())

exception No_entropy of string

let create ~seed =
  { key = Bytes.of_string (Sha256.digest ("lightweb-drbg-v1" ^ seed)); counter = 0 }

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

(* The keystream under the nonce [counter]; one extra 32 bytes become
   the next key: a simple ratchet. *)
let generate_into t dst ~pos ~len =
  if len < 0 then invalid_arg "Drbg.generate: negative length";
  if pos < 0 || pos > Bytes.length dst - len then invalid_arg "Drbg.generate_into: range out of bounds";
  c_draw build t.key t.counter dst pos len;
  t.counter <- t.counter + 1

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let out = Bytes.create n in
  generate_into t out ~pos:0 ~len:n;
  Bytes.unsafe_to_string out

let uniform_int t bound =
  if bound <= 0 then invalid_arg "Drbg.uniform_int: bound must be positive";
  let raw = Bytes.create 8 in
  let rec go () =
    generate_into t raw ~pos:0 ~len:8;
    let v = Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le raw 0) 2) in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then go () else r
  in
  go ()
