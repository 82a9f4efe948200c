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

(* ------------------------------------------------------------------ *)
(* Lane-group batch kernels                                            *)
(* ------------------------------------------------------------------ *)

(* A batch of k queries shares one scan: lane [q]'s selection bit for
   record [j] is bit [q land 7] of [bits.[bits_pos + (q lsr 3) * stride + j]]
   (8 lanes packed per byte, one [stride]-byte plane per 8 lanes). The
   lanes are cut into groups of [lane_group]; each group makes one
   straight-line, word-major pass over the block, loading every source
   word once and masking it into each of the group's accumulators. A
   generic loop over lanes inside the word loop costs several times
   more, and a 4-lane group spills registers; three lanes cost the least
   per lane-word of the widths tried (EXPERIMENTS.md E19), so the width
   is fixed here rather than tuned per call. The first group streams the
   block from memory; later groups re-read it from cache. *)
let lane_group = 3
let lane_passes lanes = (lanes + lane_group - 1) / lane_group

(* Splat lane bit [shift] of a selection byte to a full word mask. The
   masks are the query's selection bits: lint keeps every use of them
   arithmetic, never a branch or an address. *)
(* lw-lint: secret ma mb mc mask *)
let[@inline] lane_mask bits pos shift =
  Int64.neg (Int64.of_int ((Char.code (Bytes.unsafe_get bits pos) lsr shift) land 1))

let[@inline] xor_tail ~src ~i ~dst ~pos mask =
  let m = Int64.to_int mask land 0xff in
  let s = Char.code (Bytes.unsafe_get src i) in
  Bytes.unsafe_set dst pos (Char.unsafe_chr ((s land m) lxor Char.code (Bytes.unsafe_get dst pos)))

(* The group kernels run unchecked: [xor_buckets_masked] and
   [xor_buckets_lanes] validate every range once before dispatching.
   Every record costs the same read-modify-write of each accumulator
   whether its lane's bit is set or not, so the memory trace is
   independent of the selection bits. *)
let group1 ~bits ~p0 ~s0 ~count ~src ~src_pos ~bucket ~d0 =
  let words = bucket / 8 in
  let words4 = words land lnot 3 in
  for j = 0 to count - 1 do
    let ma = lane_mask bits (p0 + j) s0 in
    let base = src_pos + (j * bucket) in
    (* 4-way unrolled: buckets are word-multiples in practice, and the
       loop-carried overhead is what separates this kernel from memory
       bandwidth once the bounds checks are gone *)
    let o = ref 0 in
    while !o < 8 * words4 do
      let o0 = !o in
      let s0 = unsafe_get64 src (base + o0) and x0 = unsafe_get64 d0 o0 in
      let s1 = unsafe_get64 src (base + o0 + 8) and x1 = unsafe_get64 d0 (o0 + 8) in
      let s2 = unsafe_get64 src (base + o0 + 16) and x2 = unsafe_get64 d0 (o0 + 16) in
      let s3 = unsafe_get64 src (base + o0 + 24) and x3 = unsafe_get64 d0 (o0 + 24) in
      unsafe_set64 d0 o0 (Int64.logxor (Int64.logand s0 ma) x0);
      unsafe_set64 d0 (o0 + 8) (Int64.logxor (Int64.logand s1 ma) x1);
      unsafe_set64 d0 (o0 + 16) (Int64.logxor (Int64.logand s2 ma) x2);
      unsafe_set64 d0 (o0 + 24) (Int64.logxor (Int64.logand s3 ma) x3);
      o := o0 + 32
    done;
    for w = words4 to words - 1 do
      let o = 8 * w in
      let s = unsafe_get64 src (base + o) in
      unsafe_set64 d0 o (Int64.logxor (Int64.logand s ma) (unsafe_get64 d0 o))
    done;
    for i = 8 * words to bucket - 1 do
      xor_tail ~src ~i:(base + i) ~dst:d0 ~pos:i ma
    done
  done

(* Fused-scan block kernel: XOR [count] consecutive [bucket]-byte records
   of [src] into [dst], record [j] masked by the selection byte
   [bits.[bits_pos + j]] (0 or 1) — the one-lane group with the
   selection bit in bit 0. One bounds gate for the whole block. *)
let xor_buckets_masked ~bits ~bits_pos ~count ~src ~src_pos ~bucket ~dst =
  if bucket <= 0 || count < 0 then invalid_arg "Xorbuf.xor_buckets_masked: bad geometry";
  check_bounds "xor_buckets_masked(bits)" bits_pos count (Bytes.length bits);
  check_bounds "xor_buckets_masked(src)" src_pos (count * bucket) (Bytes.length src);
  check_bounds "xor_buckets_masked(dst)" 0 bucket (Bytes.length dst);
  group1 ~bits ~p0:bits_pos ~s0:0 ~count ~src ~src_pos ~bucket ~d0:dst

let group2 ~bits ~p0 ~s0 ~p1 ~s1 ~count ~src ~src_pos ~bucket ~d0 ~d1 =
  let words = bucket / 8 in
  let words4 = words land lnot 3 in
  for j = 0 to count - 1 do
    let ma = lane_mask bits (p0 + j) s0 and mb = lane_mask bits (p1 + j) s1 in
    let base = src_pos + (j * bucket) in
    (* 4-way unrolled: four source loads feed eight masked accumulations
       per iteration without spilling the two masks *)
    let o = ref 0 in
    while !o < 8 * words4 do
      let o0 = !o in
      let s0 = unsafe_get64 src (base + o0) in
      let s1 = unsafe_get64 src (base + o0 + 8) in
      let s2 = unsafe_get64 src (base + o0 + 16) in
      let s3 = unsafe_get64 src (base + o0 + 24) in
      unsafe_set64 d0 o0 (Int64.logxor (Int64.logand s0 ma) (unsafe_get64 d0 o0));
      unsafe_set64 d0 (o0 + 8) (Int64.logxor (Int64.logand s1 ma) (unsafe_get64 d0 (o0 + 8)));
      unsafe_set64 d0 (o0 + 16) (Int64.logxor (Int64.logand s2 ma) (unsafe_get64 d0 (o0 + 16)));
      unsafe_set64 d0 (o0 + 24) (Int64.logxor (Int64.logand s3 ma) (unsafe_get64 d0 (o0 + 24)));
      unsafe_set64 d1 o0 (Int64.logxor (Int64.logand s0 mb) (unsafe_get64 d1 o0));
      unsafe_set64 d1 (o0 + 8) (Int64.logxor (Int64.logand s1 mb) (unsafe_get64 d1 (o0 + 8)));
      unsafe_set64 d1 (o0 + 16) (Int64.logxor (Int64.logand s2 mb) (unsafe_get64 d1 (o0 + 16)));
      unsafe_set64 d1 (o0 + 24) (Int64.logxor (Int64.logand s3 mb) (unsafe_get64 d1 (o0 + 24)));
      o := o0 + 32
    done;
    for w = words4 to words - 1 do
      let o = 8 * w in
      let s = unsafe_get64 src (base + o) in
      unsafe_set64 d0 o (Int64.logxor (Int64.logand s ma) (unsafe_get64 d0 o));
      unsafe_set64 d1 o (Int64.logxor (Int64.logand s mb) (unsafe_get64 d1 o))
    done;
    for i = 8 * words to bucket - 1 do
      xor_tail ~src ~i:(base + i) ~dst:d0 ~pos:i ma;
      xor_tail ~src ~i:(base + i) ~dst:d1 ~pos:i mb
    done
  done

let group3 ~bits ~p0 ~s0 ~p1 ~s1 ~p2 ~s2 ~count ~src ~src_pos ~bucket ~d0 ~d1 ~d2 =
  let words = bucket / 8 in
  let words2 = words land lnot 1 in
  for j = 0 to count - 1 do
    let ma = lane_mask bits (p0 + j) s0 and mb = lane_mask bits (p1 + j) s1 in
    let mc = lane_mask bits (p2 + j) s2 in
    let base = src_pos + (j * bucket) in
    (* 2-way unrolled: three masks and three accumulators leave room for
       only two source words in registers *)
    let o = ref 0 in
    while !o < 8 * words2 do
      let o0 = !o in
      let s0 = unsafe_get64 src (base + o0) in
      let s1 = unsafe_get64 src (base + o0 + 8) in
      unsafe_set64 d0 o0 (Int64.logxor (Int64.logand s0 ma) (unsafe_get64 d0 o0));
      unsafe_set64 d0 (o0 + 8) (Int64.logxor (Int64.logand s1 ma) (unsafe_get64 d0 (o0 + 8)));
      unsafe_set64 d1 o0 (Int64.logxor (Int64.logand s0 mb) (unsafe_get64 d1 o0));
      unsafe_set64 d1 (o0 + 8) (Int64.logxor (Int64.logand s1 mb) (unsafe_get64 d1 (o0 + 8)));
      unsafe_set64 d2 o0 (Int64.logxor (Int64.logand s0 mc) (unsafe_get64 d2 o0));
      unsafe_set64 d2 (o0 + 8) (Int64.logxor (Int64.logand s1 mc) (unsafe_get64 d2 (o0 + 8)));
      o := o0 + 16
    done;
    for w = words2 to words - 1 do
      let o = 8 * w in
      let s = unsafe_get64 src (base + o) in
      unsafe_set64 d0 o (Int64.logxor (Int64.logand s ma) (unsafe_get64 d0 o));
      unsafe_set64 d1 o (Int64.logxor (Int64.logand s mb) (unsafe_get64 d1 o));
      unsafe_set64 d2 o (Int64.logxor (Int64.logand s mc) (unsafe_get64 d2 o))
    done;
    for i = 8 * words to bucket - 1 do
      xor_tail ~src ~i:(base + i) ~dst:d0 ~pos:i ma;
      xor_tail ~src ~i:(base + i) ~dst:d1 ~pos:i mb;
      xor_tail ~src ~i:(base + i) ~dst:d2 ~pos:i mc
    done
  done

let xor_buckets_lanes ~bits ~bits_pos ~stride ~count ~src ~src_pos ~bucket ~dsts =
  let lanes = Array.length dsts in
  if bucket <= 0 || count < 0 || stride < count || lanes = 0 then
    invalid_arg "Xorbuf.xor_buckets_lanes: bad geometry";
  let planes = (lanes + 7) / 8 in
  check_bounds "xor_buckets_lanes(bits)" bits_pos (((planes - 1) * stride) + count)
    (Bytes.length bits);
  check_bounds "xor_buckets_lanes(src)" src_pos (count * bucket) (Bytes.length src);
  Array.iter (fun d -> check_bounds "xor_buckets_lanes(dst)" 0 bucket (Bytes.length d)) dsts;
  let pos q = bits_pos + ((q lsr 3) * stride) and sh q = q land 7 in
  for g = 0 to lane_passes lanes - 1 do
    let q = g * lane_group in
    match lanes - q with
    | 1 -> group1 ~bits ~p0:(pos q) ~s0:(sh q) ~count ~src ~src_pos ~bucket ~d0:dsts.(q)
    | 2 ->
        group2 ~bits ~p0:(pos q) ~s0:(sh q) ~p1:(pos (q + 1)) ~s1:(sh (q + 1)) ~count ~src
          ~src_pos ~bucket ~d0:dsts.(q) ~d1:dsts.(q + 1)
    | _ ->
        group3 ~bits ~p0:(pos q) ~s0:(sh q) ~p1:(pos (q + 1)) ~s1:(sh (q + 1)) ~p2:(pos (q + 2))
          ~s2:(sh (q + 2)) ~count ~src ~src_pos ~bucket ~d0:dsts.(q) ~d1:dsts.(q + 1)
          ~d2:dsts.(q + 2)
  done

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
   [Bucket_db.is_empty]/[occupied] path, where the seed's [String.iter]
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

let is_zero s = is_zero_range (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
