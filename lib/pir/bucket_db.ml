type t = {
  domain_bits : int;
  bucket_size : int;
  data : Bytes.t;
  mutable tracing : bool;
  mutable trace_rev : int list; (* bucket indices touched, newest first *)
}

let max_domain_bits = 26

let create ~domain_bits ~bucket_size =
  if domain_bits < 1 || domain_bits > max_domain_bits then
    invalid_arg "Bucket_db.create: domain_bits out of range";
  if bucket_size <= 0 then invalid_arg "Bucket_db.create: bucket_size must be positive";
  {
    domain_bits;
    bucket_size;
    data = Bytes.make ((1 lsl domain_bits) * bucket_size) '\x00';
    tracing = false;
    trace_rev = [];
  }

let domain_bits t = t.domain_bits
let size t = 1 lsl t.domain_bits
let bucket_size t = t.bucket_size
let total_bytes t = Bytes.length t.data

let check_index t i =
  if i < 0 || i >= size t then invalid_arg "Bucket_db: index out of range"

(* Access tracing: off by default (a per-access cons would pollute the
   scan benchmarks), switched on by the obliviousness checker to observe
   which buckets a query touches. *)
let set_tracing t on =
  t.tracing <- on;
  t.trace_rev <- []

let access_trace t = List.rev t.trace_rev
let record t i = if t.tracing then t.trace_rev <- i :: t.trace_rev

let set t i data =
  check_index t i;
  if String.length data > t.bucket_size then invalid_arg "Bucket_db.set: data exceeds bucket";
  let off = i * t.bucket_size in
  Bytes.fill t.data off t.bucket_size '\x00';
  Bytes.blit_string data 0 t.data off (String.length data)

let get t i =
  check_index t i;
  record t i;
  Bytes.sub_string t.data (i * t.bucket_size) t.bucket_size

let is_empty t i =
  check_index t i;
  Lw_util.Xorbuf.is_zero_range t.data ~pos:(i * t.bucket_size) ~len:t.bucket_size

let clear t i =
  check_index t i;
  Bytes.fill t.data (i * t.bucket_size) t.bucket_size '\x00'

let xor_bucket_into t i ~dst =
  check_index t i;
  record t i;
  Lw_util.Xorbuf.xor_into ~src:t.data ~src_pos:(i * t.bucket_size) ~dst ~dst_pos:0
    ~len:t.bucket_size

let xor_bucket_into_masked t i ~mask ~dst =
  check_index t i;
  record t i;
  Lw_util.Xorbuf.xor_into_masked ~mask ~src:t.data ~src_pos:(i * t.bucket_size) ~dst
    ~dst_pos:0 ~len:t.bucket_size

(* The scan kernel enters here at block granularity, but tracing stays
   bucket-granular: the kernel makes one pass over the block whatever
   the lane count, so every bucket is recorded once, in order, and
   [Lw_analysis.Trace_check] observes the per-bucket access sequence the
   kernel really performs. *)

let check_block t ~base ~count =
  if count < 0 || base < 0 || base > size t - count then
    invalid_arg "Bucket_db: block out of range"

let xor_block_into_lanes t ~base ~count ~bits ~bits_pos ~stride ~dsts =
  check_block t ~base ~count;
  if t.tracing then
    for j = 0 to count - 1 do
      t.trace_rev <- (base + j) :: t.trace_rev
    done;
  Lw_util.Xorbuf.xor_buckets_lanes ~bits ~bits_pos ~stride ~count ~src:t.data
    ~src_pos:(base * t.bucket_size) ~bucket:t.bucket_size ~dsts

let fill_random t rng =
  let n = Bytes.length t.data in
  let chunk = 65536 in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Bytes.blit_string (Lw_util.Det_rng.bytes rng len) 0 t.data !pos len;
    pos := !pos + len
  done

let occupied t =
  let n = ref 0 in
  for i = 0 to size t - 1 do
    if not (is_empty t i) then incr n
  done;
  !n
