type client_msg =
  | Hello of { version : int; modes : Zltp_mode.t list }
  | Pir_query of { qid : int; epoch : int; dpf_key : string }
  | Pir_batch of { qid : int; epoch : int; dpf_keys : string list }
  | Keyword_query of { qid : int; epoch : int; dpf_key0 : string; dpf_key1 : string }
  | Enclave_get of { qid : int; key : string }
  | Spir_hint_req of { qid : int; epoch : int }
  | Spir_query of { qid : int; epoch : int; query : string }
  | Health of { qid : int }
  | Sync of { qid : int }
  | Bye

type server_msg =
  | Welcome of {
      version : int;
      mode : Zltp_mode.t;
      domain_bits : int;
      blob_size : int;
      hash_key : string;
      server_id : string;
      epoch : int;
    }
  | Answer of { qid : int; epoch : int; share : string }
  | Batch_answer of { qid : int; epoch : int; shares : string list }
  | Keyword_answer of { qid : int; epoch : int; share0 : string; share1 : string }
  | Enclave_answer of { qid : int; value : string option }
  | Spir_hint of { qid : int; epoch : int; hint : string }
  | Spir_answer of { qid : int; epoch : int; answer : string }
  | Health_reply of { qid : int; shards_total : int; shards_down : int; epoch : int }
  | Sync_reply of { qid : int; epoch : int; oldest : int }
  | Err of { qid : int; code : int; message : string }

let protocol_version = 6
let err_not_negotiated = 1
let err_bad_request = 2
let err_wrong_mode = 3
let err_internal = 4
let err_degraded = 5
let err_epoch_retired = 6
let err_epoch_ahead = 7

(* The correlation id of a reply, when it carries one. [Welcome] does not
   (the handshake is strictly alternating); an [Err] about something other
   than a specific query uses qid 0. *)
let reply_qid = function
  | Welcome _ -> None
  | Answer { qid; _ } | Batch_answer { qid; _ } | Keyword_answer { qid; _ }
  | Enclave_answer { qid; _ } | Spir_hint { qid; _ } | Spir_answer { qid; _ }
  | Health_reply { qid; _ } | Sync_reply { qid; _ } | Err { qid; _ } ->
      Some qid

let request_qid = function
  | Hello _ | Bye -> None
  | Pir_query { qid; _ } | Pir_batch { qid; _ } | Keyword_query { qid; _ }
  | Enclave_get { qid; _ } | Spir_hint_req { qid; _ } | Spir_query { qid; _ }
  | Health { qid } | Sync { qid } ->
      Some qid

(* ---- primitive writers/readers: tag byte, u8, u32-be, length-prefixed
   strings and lists ---- *)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_list buf xs add =
  add_u32 buf (List.length xs);
  List.iter (add buf) xs

type reader = { src : string; mutable pos : int }

exception Decode of string

let need r n = if r.pos + n > String.length r.src then raise (Decode "truncated message")

let u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let u32 r =
  need r 4;
  (* unsigned: a qid legitimately uses the full 32-bit range *)
  let v = Int32.to_int (String.get_int32_be r.src r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let str r =
  let n = u32 r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let list r elt =
  let n = u32 r in
  if n > 1 lsl 20 then raise (Decode "list too long");
  List.init n (fun _ -> elt r)

let finish r v =
  if r.pos <> String.length r.src then raise (Decode "trailing bytes");
  v

(* Every encoded message carries a 4-byte CRC-32 trailer over its body —
   the stand-in for the record MAC of the TLS channel ZLTP rides in. It
   is what turns a corrupted-in-flight message into a structured decode
   [Error] (→ client retry) instead of silently wrong reassembled bytes:
   CRC-32 detects every single-bit flip deterministically. *)
let trailer_size = 4

let seal body =
  let n = String.length body in
  let b = Bytes.create (n + trailer_size) in
  Bytes.blit_string body 0 b 0 n;
  Bytes.set_int32_be b n (Lw_util.Crc32.digest body);
  Bytes.unsafe_to_string b

let unseal s =
  let n = String.length s - trailer_size in
  if n < 0 then raise (Decode "message shorter than integrity trailer");
  if not (Int32.equal (String.get_int32_be s n) (Lw_util.Crc32.update 0l s ~pos:0 ~len:n)) then
    raise (Decode "integrity check failed");
  n

let run_decoder f s =
  try
    let body_len = unseal s in
    Ok (f { src = String.sub s 0 body_len; pos = 0 })
  with Decode e -> Error e

(* ---- client messages ---- *)

let encode_client msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Hello { version; modes } ->
      add_u8 buf 1;
      add_u8 buf version;
      add_list buf modes (fun b m -> add_u8 b (Zltp_mode.to_tag m))
  | Pir_query { qid; epoch; dpf_key } ->
      add_u8 buf 2;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_str buf dpf_key
  | Pir_batch { qid; epoch; dpf_keys } ->
      add_u8 buf 3;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_list buf dpf_keys add_str
  | Enclave_get { qid; key } ->
      add_u8 buf 4;
      add_u32 buf qid;
      add_str buf key
  | Bye -> add_u8 buf 5
  | Health { qid } ->
      add_u8 buf 6;
      add_u32 buf qid
  | Sync { qid } ->
      add_u8 buf 7;
      add_u32 buf qid
  | Keyword_query { qid; epoch; dpf_key0; dpf_key1 } ->
      add_u8 buf 8;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_str buf dpf_key0;
      add_str buf dpf_key1
  | Spir_hint_req { qid; epoch } ->
      add_u8 buf 9;
      add_u32 buf qid;
      add_u32 buf epoch
  | Spir_query { qid; epoch; query } ->
      add_u8 buf 10;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_str buf query);
  seal (Buffer.contents buf)

let mode_of_tag r =
  match Zltp_mode.of_tag (u8 r) with
  | Some m -> m
  | None -> raise (Decode "unknown mode tag")

let decode_client s =
  run_decoder
    (fun r ->
      match u8 r with
      | 1 ->
          let version = u8 r in
          let modes = list r mode_of_tag in
          finish r (Hello { version; modes })
      | 2 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Pir_query { qid; epoch; dpf_key = str r })
      | 3 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Pir_batch { qid; epoch; dpf_keys = list r str })
      | 4 ->
          let qid = u32 r in
          finish r (Enclave_get { qid; key = str r })
      | 5 -> finish r Bye
      | 6 -> finish r (Health { qid = u32 r })
      | 7 -> finish r (Sync { qid = u32 r })
      | 8 ->
          let qid = u32 r in
          let epoch = u32 r in
          let dpf_key0 = str r in
          let dpf_key1 = str r in
          finish r (Keyword_query { qid; epoch; dpf_key0; dpf_key1 })
      | 9 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Spir_hint_req { qid; epoch })
      | 10 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Spir_query { qid; epoch; query = str r })
      | t -> raise (Decode (Printf.sprintf "unknown client tag %d" t)))
    s

(* ---- server messages ---- *)

let encode_server msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Welcome { version; mode; domain_bits; blob_size; hash_key; server_id; epoch } ->
      add_u8 buf 1;
      add_u8 buf version;
      add_u8 buf (Zltp_mode.to_tag mode);
      add_u8 buf domain_bits;
      add_u32 buf blob_size;
      add_str buf hash_key;
      add_str buf server_id;
      add_u32 buf epoch
  | Answer { qid; epoch; share } ->
      add_u8 buf 2;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_str buf share
  | Batch_answer { qid; epoch; shares } ->
      add_u8 buf 3;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_list buf shares add_str
  | Enclave_answer { qid; value } -> (
      add_u8 buf 4;
      add_u32 buf qid;
      match value with
      | None -> add_u8 buf 0
      | Some v ->
          add_u8 buf 1;
          add_str buf v)
  | Err { qid; code; message } ->
      add_u8 buf 5;
      add_u32 buf qid;
      add_u8 buf code;
      add_str buf message
  | Health_reply { qid; shards_total; shards_down; epoch } ->
      add_u8 buf 6;
      add_u32 buf qid;
      add_u32 buf shards_total;
      add_u32 buf shards_down;
      add_u32 buf epoch
  | Sync_reply { qid; epoch; oldest } ->
      add_u8 buf 7;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_u32 buf oldest
  | Keyword_answer { qid; epoch; share0; share1 } ->
      add_u8 buf 8;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_str buf share0;
      add_str buf share1
  | Spir_hint { qid; epoch; hint } ->
      add_u8 buf 9;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_str buf hint
  | Spir_answer { qid; epoch; answer } ->
      add_u8 buf 10;
      add_u32 buf qid;
      add_u32 buf epoch;
      add_str buf answer);
  seal (Buffer.contents buf)

let decode_server s =
  run_decoder
    (fun r ->
      match u8 r with
      | 1 ->
          let version = u8 r in
          let mode = mode_of_tag r in
          let domain_bits = u8 r in
          let blob_size = u32 r in
          let hash_key = str r in
          let server_id = str r in
          let epoch = u32 r in
          finish r (Welcome { version; mode; domain_bits; blob_size; hash_key; server_id; epoch })
      | 2 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Answer { qid; epoch; share = str r })
      | 3 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Batch_answer { qid; epoch; shares = list r str })
      | 4 -> (
          let qid = u32 r in
          match u8 r with
          | 0 -> finish r (Enclave_answer { qid; value = None })
          | 1 -> finish r (Enclave_answer { qid; value = Some (str r) })
          | _ -> raise (Decode "bad option tag"))
      | 5 ->
          let qid = u32 r in
          let code = u8 r in
          let message = str r in
          finish r (Err { qid; code; message })
      | 6 ->
          let qid = u32 r in
          let shards_total = u32 r in
          let shards_down = u32 r in
          let epoch = u32 r in
          finish r (Health_reply { qid; shards_total; shards_down; epoch })
      | 7 ->
          let qid = u32 r in
          let epoch = u32 r in
          let oldest = u32 r in
          finish r (Sync_reply { qid; epoch; oldest })
      | 8 ->
          let qid = u32 r in
          let epoch = u32 r in
          let share0 = str r in
          let share1 = str r in
          finish r (Keyword_answer { qid; epoch; share0; share1 })
      | 9 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Spir_hint { qid; epoch; hint = str r })
      | 10 ->
          let qid = u32 r in
          let epoch = u32 r in
          finish r (Spir_answer { qid; epoch; answer = str r })
      | t -> raise (Decode (Printf.sprintf "unknown server tag %d" t)))
    s
