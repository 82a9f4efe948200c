(* ChaCha20 in C (channel_stubs.c): one body, one build per vector
   width, the build picked once from CPUID. The externals read no OCaml
   value but their arguments and allocate nothing; the build index,
   lengths and every range are checked here first. *)

let key_len = 32
let nonce_len = 12
let block_len = 64

external c_builds : unit -> string array = "lw_chacha_builds"
external c_first : unit -> int = "lw_chacha_first"

external c_xor : int -> string -> string -> int -> Bytes.t -> int -> Bytes.t -> int -> int -> unit
  = "lw_chacha_xor_byte" "lw_chacha_xor"
[@@noalloc]

(* Every build, widest first; the CPU runs those from [first] on, and
   every call runs [first]. *)
let all_builds = c_builds ()
let first = c_first ()
let build () = all_builds.(first)
let builds () = Array.to_list (Array.sub all_builds first (Array.length all_builds - first))

let build_index name =
  match Array.find_index (Ct.equal name) all_builds with
  | Some i when i >= first -> i
  | _ -> invalid_arg "Chacha20: build not runnable on this CPU"

let check ~key ~nonce =
  if String.length key <> key_len then invalid_arg "Chacha20.block: key must be 32 bytes";
  if String.length nonce <> nonce_len then invalid_arg "Chacha20.block: nonce must be 12 bytes"

(* the one conversion from the interface's [int32] *)
let counter_of c = Int32.to_int c land 0xffffffff

let block ~key ~nonce ~counter out =
  check ~key ~nonce;
  if Bytes.length out < block_len then invalid_arg "Chacha20.block: output too small";
  Bytes.fill out 0 block_len '\x00';
  c_xor first key nonce (counter_of counter) out 0 out 0 block_len

(* the block counter wraps at 32 bits, as RFC 8439's does *)
let xor_in_place b ~key ~nonce ~counter buf =
  check ~key ~nonce;
  c_xor b key nonce (counter_of counter) buf 0 buf 0 (Bytes.length buf);
  Bytes.unsafe_to_string buf

let encrypt ~key ~nonce ?(counter = 0l) msg =
  xor_in_place first ~key ~nonce ~counter (Bytes.of_string msg)

let encrypt_on ~build ~key ~nonce ?(counter = 0l) msg =
  xor_in_place (build_index build) ~key ~nonce ~counter (Bytes.of_string msg)

let keystream ~key ~nonce len =
  if len < 0 then invalid_arg "Chacha20.keystream: negative length";
  xor_in_place first ~key ~nonce ~counter:0l (Bytes.make len '\x00')
