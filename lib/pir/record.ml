(* Layout: 'R' | u16 key_len | u32 value_len | key | value | zero padding.
   An all-zero bucket has no 'R' tag, so emptiness is unambiguous. *)

let overhead = 1 + 2 + 4
let max_key_len = 0xffff

let encode ~bucket_size ~key ~value =
  let klen = String.length key and vlen = String.length value in
  if klen = 0 then invalid_arg "Record.encode: empty key";
  if klen > max_key_len then invalid_arg "Record.encode: key too long";
  if overhead + klen + vlen > bucket_size then invalid_arg "Record.encode: record exceeds bucket";
  let b = Bytes.make bucket_size '\x00' in
  Bytes.set b 0 'R';
  Bytes.set_uint16_be b 1 klen;
  Bytes.set_int32_be b 3 (Int32.of_int vlen);
  Bytes.blit_string key 0 b overhead klen;
  Bytes.blit_string value 0 b (overhead + klen) vlen;
  Bytes.unsafe_to_string b

let decode bucket =
  let n = String.length bucket in
  if n < overhead || bucket.[0] <> 'R' then None
  else begin
    let b = Bytes.unsafe_of_string bucket in
    let klen = Bytes.get_uint16_be b 1 in
    let vlen = Int32.to_int (Bytes.get_int32_be b 3) in
    if klen = 0 || vlen < 0 || overhead + klen + vlen > n then None
    else
      Some (String.sub bucket overhead klen, String.sub bucket (overhead + klen) vlen)
  end

let decode_for_key ~key bucket =
  match decode bucket with
  | Some (k, v) when String.equal k key -> Some v
  | Some _ | None -> None
