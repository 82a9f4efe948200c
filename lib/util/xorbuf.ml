(* Unchecked native-endian word access. Every exported function validates
   its ranges once with [check_bounds] before entering a word loop, so the
   per-word bounds checks the safe accessors would pay (three per XOR'd
   word) are hoisted out of the scan kernels entirely. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let check_bounds name pos len total =
  (* [pos > total - len] rather than [pos + len > total]: the sum can wrap
     negative for huge [len] and slip past the check, and every unsafe
     word access below relies on this gate. *)
  if pos < 0 || len < 0 || pos > total - len then
    invalid_arg (Printf.sprintf "Xorbuf.%s: range out of bounds" name)

(* The 64-bit inner loop reads/writes unaligned native-endian words; the
   scalar tail handles the last [len mod 8] bytes. *)
let xor_into ~src ~src_pos ~dst ~dst_pos ~len =
  check_bounds "xor_into(src)" src_pos len (Bytes.length src);
  check_bounds "xor_into(dst)" dst_pos len (Bytes.length dst);
  let words = len / 8 in
  for i = 0 to words - 1 do
    let s = unsafe_get64 src (src_pos + (8 * i)) in
    let d = unsafe_get64 dst (dst_pos + (8 * i)) in
    unsafe_set64 dst (dst_pos + (8 * i)) (Int64.logxor s d)
  done;
  for i = 8 * words to len - 1 do
    let s = Char.code (Bytes.unsafe_get src (src_pos + i)) in
    let d = Char.code (Bytes.unsafe_get dst (dst_pos + i)) in
    Bytes.unsafe_set dst (dst_pos + i) (Char.unsafe_chr (s lxor d))
  done

(* Like [xor_into], but every source byte is ANDed with [mask] first.
   With mask 0xff this is a plain XOR; with mask 0x00 it degenerates to a
   read-modify-write of [dst] with itself — same memory traffic, no data
   change. That makes a selective XOR scan constant-trace: the caller
   derives the mask arithmetically from a selection bit and touches every
   bucket identically whether or not it is selected. *)
let xor_into_masked ~mask ~src ~src_pos ~dst ~dst_pos ~len =
  check_bounds "xor_into_masked(src)" src_pos len (Bytes.length src);
  check_bounds "xor_into_masked(dst)" dst_pos len (Bytes.length dst);
  let mask = mask land 0xff in
  let m64 = Int64.mul (Int64.of_int mask) 0x0101010101010101L in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let s = Bytes.get_int64_ne src (src_pos + (8 * i)) in
    let d = Bytes.get_int64_ne dst (dst_pos + (8 * i)) in
    Bytes.set_int64_ne dst (dst_pos + (8 * i)) (Int64.logxor (Int64.logand s m64) d)
  done;
  for i = 8 * words to len - 1 do
    let s = Char.code (Bytes.unsafe_get src (src_pos + i)) in
    let d = Char.code (Bytes.unsafe_get dst (dst_pos + i)) in
    Bytes.unsafe_set dst (dst_pos + i) (Char.unsafe_chr ((s land mask) lxor d))
  done

(* The batch kernel, in C (xorbuf_stubs.c), compiled once per vector
   width. It reads no OCaml value but the arguments and allocates
   nothing; the build index and every range are checked here first. *)
external xor_lanes :
  int ->
  Bytes.t ->
  int ->
  int ->
  int ->
  Bytes.t ->
  int ->
  int ->
  Bytes.t ->
  int ->
  int ->
  Bytes.t array ->
  unit = "lw_xor_buckets_lanes_byte" "lw_xor_buckets_lanes"
[@@noalloc]

external extent_order_into : Bytes.t -> int -> int -> int -> Bytes.t -> int = "lw_extent_order"
[@@noalloc]

external kernel_builds : unit -> string array = "lw_scan_builds"
external first_build : unit -> int = "lw_scan_first"

(* Every build, widest first; the CPU runs those from [first] on, and
   every scan runs [first]. *)
let builds = kernel_builds ()
let first = first_build ()
let scan_kernel () = builds.(first)
let scan_kernels () = Array.to_list (Array.sub builds first (Array.length builds - first))

(* Whole records: every record reads one shared entry (step 0) that the
   kernel caps at the bucket; it reads a tile's extents in pairs, so the
   entry is eight bytes. *)
let whole = Bytes.make 8 '\xff'

let lanes_on build ~ext ~ext_pos ~ext_step ~bits ~bits_pos ~stride ~count ~src ~src_pos ~bucket
    ~dsts =
  let lanes = Array.length dsts in
  if bucket <= 0 || count < 0 || stride < count || lanes = 0 then
    invalid_arg "Xorbuf.xor_buckets_lanes: bad geometry";
  let planes = (lanes + 7) / 8 in
  (* the divisions keep [(planes - 1) * stride] and [count * bucket]
     from wrapping round to a small length that passes the range check *)
  if stride > 0 && planes - 1 > Bytes.length bits / stride then
    invalid_arg "Xorbuf.xor_buckets_lanes(bits): range out of bounds";
  check_bounds "xor_buckets_lanes(bits)" bits_pos (((planes - 1) * stride) + count)
    (Bytes.length bits);
  if count > Bytes.length src / bucket then
    invalid_arg "Xorbuf.xor_buckets_lanes(src): range out of bounds";
  check_bounds "xor_buckets_lanes(src)" src_pos (count * bucket) (Bytes.length src);
  Array.iter (fun d -> check_bounds "xor_buckets_lanes(dst)" 0 bucket (Bytes.length d)) dsts;
  check_bounds "xor_buckets_lanes(extents)" ext_pos (ext_step * count) (Bytes.length ext);
  xor_lanes build bits bits_pos stride count src src_pos bucket ext ext_pos ext_step dsts

let build_of kernel =
  match Array.find_index (String.equal kernel) builds with
  | Some build when build >= first -> build
  | _ -> invalid_arg "Xorbuf.xor_buckets_lanes_on: kernel not runnable on this CPU"

let xor_buckets_lanes ~bits ~bits_pos ~stride ~count ~src ~src_pos ~bucket ~dsts =
  lanes_on first ~ext:whole ~ext_pos:0 ~ext_step:0 ~bits ~bits_pos ~stride ~count ~src ~src_pos
    ~bucket ~dsts

let xor_buckets_lanes_on ~kernel ~bits ~bits_pos ~stride ~count ~src ~src_pos ~bucket ~dsts =
  lanes_on (build_of kernel) ~ext:whole ~ext_pos:0 ~ext_step:0 ~bits ~bits_pos ~stride ~count
    ~src ~src_pos ~bucket ~dsts

let xor_extents_lanes ~extents ~extents_pos ~bits ~bits_pos ~stride ~count ~src ~src_pos ~bucket
    ~dsts =
  lanes_on first ~ext:extents ~ext_pos:extents_pos ~ext_step:4 ~bits ~bits_pos ~stride ~count
    ~src ~src_pos ~bucket ~dsts

let xor_extents_lanes_on ~kernel ~extents ~extents_pos ~bits ~bits_pos ~stride ~count ~src
    ~src_pos ~bucket ~dsts =
  lanes_on (build_of kernel) ~ext:extents ~ext_pos:extents_pos ~ext_step:4 ~bits ~bits_pos
    ~stride ~count ~src ~src_pos ~bucket ~dsts

let extent_order ~extents ~extents_pos ~count ~bucket =
  if bucket <= 0 || count < 0 then invalid_arg "Xorbuf.extent_order: bad geometry";
  (* the division keeps [4 * count] from wrapping round *)
  if count > Bytes.length extents / 4 then
    invalid_arg "Xorbuf.extent_order(extents): range out of bounds";
  check_bounds "extent_order(extents)" extents_pos (4 * count) (Bytes.length extents);
  let out = Bytes.create (4 * count) in
  let kept = extent_order_into extents extents_pos count bucket out in
  Array.init kept (fun i -> Int32.to_int (Bytes.get_int32_ne out (4 * i)))

let set_lane_bits ~src ~src_pos ~dst ~dst_pos ~len ~lane =
  if lane < 0 || lane > 7 then invalid_arg "Xorbuf.set_lane_bits: lane out of range";
  check_bounds "set_lane_bits(src)" src_pos len (Bytes.length src);
  check_bounds "set_lane_bits(dst)" dst_pos len (Bytes.length dst);
  (* the low bit of each source byte moves to bit [lane] of its own
     byte: a shift by at most 7 never carries into the next byte *)
  let words = len / 8 in
  for w = 0 to words - 1 do
    let o = 8 * w in
    let b = Int64.logand (unsafe_get64 src (src_pos + o)) 0x0101010101010101L in
    let d = unsafe_get64 dst (dst_pos + o) in
    unsafe_set64 dst (dst_pos + o) (Int64.logor d (Int64.shift_left b lane))
  done;
  for i = 8 * words to len - 1 do
    let b = Char.code (Bytes.unsafe_get src (src_pos + i)) land 1 in
    let d = Char.code (Bytes.unsafe_get dst (dst_pos + i)) in
    Bytes.unsafe_set dst (dst_pos + i) (Char.unsafe_chr (d lor (b lsl lane)))
  done

let xor_string_into ~src ~src_pos ~dst ~dst_pos ~len =
  xor_into ~src:(Bytes.unsafe_of_string src) ~src_pos ~dst ~dst_pos ~len

let xor a b =
  let n = String.length a in
  if String.length b <> n then invalid_arg "Xorbuf.xor: length mismatch";
  let out = Bytes.of_string a in
  xor_string_into ~src:b ~src_pos:0 ~dst:out ~dst_pos:0 ~len:n;
  Bytes.unsafe_to_string out

(* Word-at-a-time OR-accumulate with a byte tail: this sits on the
   [Lw_store] [is_empty]/[occupied] path, where the seed's [String.iter]
   cost a closure call per byte. *)
let is_zero_range b ~pos ~len =
  check_bounds "is_zero_range" pos len (Bytes.length b);
  let words = len / 8 in
  let acc64 = ref 0L in
  for w = 0 to words - 1 do
    acc64 := Int64.logor !acc64 (unsafe_get64 b (pos + (8 * w)))
  done;
  let acc = ref 0 in
  for i = 8 * words to len - 1 do
    acc := !acc lor Char.code (Bytes.unsafe_get b (pos + i))
  done;
  Int64.equal !acc64 0L && !acc = 0

(* Backwards a word at a time from the end, then byte by byte inside
   the last non-zero word: a record framed at the front of a
   zero-padded bucket costs a few words past its last byte. *)
let nonzero_end b ~pos ~len =
  check_bounds "nonzero_end" pos len (Bytes.length b);
  let words = len / 8 in
  let e = ref len in
  while !e > 8 * words && Bytes.unsafe_get b (pos + !e - 1) = '\x00' do
    decr e
  done;
  if !e = 8 * words then begin
    while !e > 0 && Int64.equal (unsafe_get64 b (pos + !e - 8)) 0L do
      e := !e - 8
    done;
    while !e > 0 && Bytes.unsafe_get b (pos + !e - 1) = '\x00' do
      decr e
    done
  end;
  !e

let is_zero s = is_zero_range (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
