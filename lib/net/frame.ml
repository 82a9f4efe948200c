let max_frame_size = 64 * 1024 * 1024
let header_size = 4

exception Malformed of string

let encode payload =
  let n = String.length payload in
  if n > max_frame_size then invalid_arg "Frame.encode: frame too large";
  let b = Bytes.create (header_size + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_size n;
  Bytes.unsafe_to_string b

let decode_header h =
  if String.length h <> header_size then raise (Malformed "short header");
  let n = Int32.to_int (String.get_int32_be h 0) in
  if n < 0 || n > max_frame_size then raise (Malformed "bad frame length");
  n

(* Loop until [n] bytes arrive. A short read is not an error — TCP
   delivers frames in arbitrary pieces — but EOF is: at the very start of
   a frame it is a clean close ([End_of_file]); anywhere past the first
   byte it means the peer died mid-frame and the stream can never resync,
   so it is [Malformed], not a silent truncation. [Unix.read] surfaces
   [EAGAIN]/[EWOULDBLOCK] when the socket has a receive timeout
   configured; the caller maps that to a deadline expiry. *)
let really_read_fd fd buf ~len ~at_frame_start =
  let rec go off =
    if off < len then begin
      let k = Unix.read fd buf off (len - off) in
      if k = 0 then
        if off = 0 && at_frame_start then raise End_of_file
        else raise (Malformed "EOF mid-frame")
      else go (off + k)
    end
  in
  go 0

let read_fd fd =
  let header = Bytes.create header_size in
  really_read_fd fd header ~len:header_size ~at_frame_start:true;
  let n = decode_header (Bytes.unsafe_to_string header) in
  let payload = Bytes.create n in
  really_read_fd fd payload ~len:n ~at_frame_start:false;
  Bytes.unsafe_to_string payload

let write_fd fd payload =
  let framed = Bytes.unsafe_of_string (encode payload) in
  let len = Bytes.length framed in
  let rec go off =
    if off < len then go (off + Unix.write fd framed off (len - off))
  in
  go 0
