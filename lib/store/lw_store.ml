(* The epoch-versioned storage engine.

   Two-server PIR is only correct when both servers scan bit-identical
   databases, yet publishers keep pushing updates. The engine resolves
   the tension by never mutating a published database: readers pin an
   immutable [Snapshot] of some epoch [e] and scan it for as long as
   they like, while a [Writer] batches mutations copy-on-write and
   publishes them as epoch [e+1] with one atomic [seal].

   Storage is an array of fixed-size blocks (a power-of-two run of
   buckets sized to the Xorbuf streaming-block budget). Sealing shares
   every block the writer did not touch with the previous epoch, so an
   epoch that changed 1% of the buckets costs ~1% of a full copy — the
   block arrays differ only where publishers actually wrote.

   Each bucket also has an extent: the offset just past its last
   non-zero byte, rounded up to 64 B (the scan kernel's column) and
   capped at the bucket size; an empty bucket's is 0. The writers
   compute extents from the bytes they write, a block keeps its
   buckets' extents next to its bytes, and the scan kernel reads each
   bucket only up to its extent: the zero tail XORs nothing into an
   answer. Extents describe the database, which each server holds in
   the clear, so they are as public as the bucket geometry. Buckets of
   fewer than [whole_scan_below] bytes are always read whole.

   Epoch lifetime is refcounted: [pin]/[pin_latest] take a reference,
   [unpin] releases it, and an epoch is retired (its private blocks
   dropped) once nobody pins it and it has aged out of the small keep
   window that lets briefly-behind clients still be answered. *)

(* Block budget mirrors the fused scan kernel's streaming block
   ([Lw_pir.Server.block_bytes]): CoW granularity and scan granularity
   describe the same slice of the database. *)
let default_block_bytes = 1 lsl 18
let max_domain_bits = 26
let default_hash_key = String.sub (Lw_crypto.Sha256.digest "lw-pir-store-default") 0 16

(* Below eight of the kernel's 64-byte columns a bucket is read whole,
   empty or not: there the per-record loop over a few columns, whose
   length changes from record to record, cost more than the zero tail it
   skipped (side-by-side at 256 B, 44% of buckets filled: 1.1-1.3x the
   whole-bucket walk; at 512 B already 0.6-1.0x). *)
let whole_scan_below = 512

(* The access trace, newest first: the bucket each access touched and
   the bytes it read there. *)
type trace = { mutable on : bool; mutable rev : (int * int) list }

(* A CoW block: its buckets' bytes, their extents (native-endian 32-bit,
   one per bucket, the layout the scan kernel reads) and the extents'
   sum. Only the writer that copied a block changes it, and only until
   it seals; a sealed block is shared as it stands. *)
type block = { data : Bytes.t; ext : Bytes.t; mutable scanned : int }

(* A snapshot is a window onto one epoch's blocks: the whole domain, or a
   range view ([Snapshot.sub]) that starts [base] buckets in and spans
   [2^bits] buckets. Views share the parent's blocks and copy nothing. *)
type snapshot = { epoch : int; blocks : block array; store : t; base : int; bits : int }

and entry = { snap : snapshot; mutable pins : int }

and t = {
  domain_bits : int;
  bucket_size : int;
  hash_key : string;
  block_bits : int; (* log2 of buckets per block *)
  keep : int;
  lock : Mutex.t;
  mutable entries : entry list; (* newest epoch first; head is current *)
  trace : trace;
}

type store = t

let m_sealed = Lw_obs.Metrics.counter "store.epochs_sealed"
let m_cow_bytes = Lw_obs.Metrics.counter "store.cow_bytes"
let g_live = Lw_obs.Metrics.gauge "store.live_epochs"
let g_pins = Lw_obs.Metrics.gauge "store.pinned_readers"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let domain_bits t = t.domain_bits
let size t = 1 lsl t.domain_bits
let bucket_size t = t.bucket_size
let hash_key t = t.hash_key
let total_bytes t = size t * t.bucket_size
let block_buckets t = 1 lsl t.block_bits
let n_blocks t = size t lsr t.block_bits
let block_bytes t = block_buckets t * t.bucket_size

let index_of_key t key =
  Lw_crypto.Siphash.to_domain ~key:t.hash_key ~domain_bits:t.domain_bits key

(* The bytes the scan kernel reads of a bucket whose last non-zero byte
   ends [nz] bytes in. *)
let extent_of t nz =
  if t.bucket_size < whole_scan_below then t.bucket_size
  else min t.bucket_size ((nz + 63) land lnot 63)

(* An extent table of [2^bits] buckets, every entry [e]. *)
let uniform_extents bits e =
  let ext = Bytes.create (4 lsl bits) in
  for j = 0 to (1 lsl bits) - 1 do
    Bytes.set_int32_ne ext (4 * j) (Int32.of_int e)
  done;
  ext

let create ?(hash_key = default_hash_key) ?(keep = 2) ?(block_bytes = default_block_bytes)
    ?(initial_epoch = 0) ~domain_bits ~bucket_size () =
  if domain_bits < 1 || domain_bits > max_domain_bits then
    invalid_arg "Lw_store.create: domain_bits out of range";
  if bucket_size <= 0 then invalid_arg "Lw_store.create: bucket_size must be positive";
  if String.length hash_key <> 16 then invalid_arg "Lw_store.create: hash_key must be 16 bytes";
  if keep < 1 then invalid_arg "Lw_store.create: keep must be >= 1";
  if block_bytes < 1 then invalid_arg "Lw_store.create: block_bytes must be positive";
  if initial_epoch < 0 then invalid_arg "Lw_store.create: initial_epoch must be >= 0";
  let size = 1 lsl domain_bits in
  (* largest power-of-two bucket run that fits the block budget, clamped
     to [1, size] so blocks always tile the domain exactly *)
  let rec fit b =
    if 1 lsl (b + 1) > size then b
    else if (1 lsl (b + 1)) * bucket_size > block_bytes then b
    else fit (b + 1)
  in
  let block_bits = fit 0 in
  let t =
    {
      domain_bits;
      bucket_size;
      hash_key;
      block_bits;
      keep;
      lock = Mutex.create ();
      entries = [];
      trace = { on = false; rev = [] };
    }
  in
  (* every empty block starts from one shared extent table: a writer
     copies a block's table before it changes it *)
  let ext = uniform_extents block_bits (extent_of t 0) in
  let blocks =
    Array.init (size lsr block_bits) (fun _ ->
        {
          data = Bytes.make ((1 lsl block_bits) * bucket_size) '\x00';
          ext;
          scanned = extent_of t 0 lsl block_bits;
        })
  in
  let snap = { epoch = initial_epoch; blocks; store = t; base = 0; bits = domain_bits } in
  t.entries <- [ { snap; pins = 0 } ];
  t

let current_entry t = match t.entries with e :: _ -> e | [] -> assert false

(* Retirement, under the lock: an epoch survives while someone pins it
   or while it is within the [keep] most recent epochs (current
   included) — the window that lets a client one epoch behind still be
   answered instead of bounced straight to a re-sync. *)
let retire_locked t =
  let cur = (current_entry t).snap.epoch in
  t.entries <- List.filter (fun e -> e.pins > 0 || e.snap.epoch > cur - t.keep) t.entries;
  Lw_obs.Metrics.set g_live (float_of_int (List.length t.entries))

let current t = with_lock t (fun () -> (current_entry t).snap)
let current_epoch t = (current t).epoch

let oldest_epoch t =
  with_lock t (fun () ->
      List.fold_left (fun acc e -> min acc e.snap.epoch) max_int t.entries)

let live_epochs t =
  with_lock t (fun () -> List.rev_map (fun e -> e.snap.epoch) t.entries)

let total_pins_locked t = List.fold_left (fun acc e -> acc + e.pins) 0 t.entries

let pin_latest t =
  with_lock t (fun () ->
      let e = current_entry t in
      e.pins <- e.pins + 1;
      Lw_obs.Metrics.set g_pins (float_of_int (total_pins_locked t));
      e.snap)

type pin_error = Retired | Ahead

let pin t ~epoch =
  with_lock t (fun () ->
      match List.find_opt (fun e -> e.snap.epoch = epoch) t.entries with
      | Some e ->
          e.pins <- e.pins + 1;
          Lw_obs.Metrics.set g_pins (float_of_int (total_pins_locked t));
          Ok e.snap
      | None -> if epoch > (current_entry t).snap.epoch then Error Ahead else Error Retired)

let check_whole fn s =
  if s.bits <> s.store.domain_bits then invalid_arg (fn ^ ": snapshot is a range view")

let unpin t snap =
  check_whole "Lw_store.unpin" snap;
  with_lock t (fun () ->
      match List.find_opt (fun e -> e.snap.epoch = snap.epoch) t.entries with
      | None -> () (* epoch already retired; double-unpin is harmless *)
      | Some e ->
          if e.pins > 0 then e.pins <- e.pins - 1;
          Lw_obs.Metrics.set g_pins (float_of_int (total_pins_locked t));
          if e.pins = 0 then retire_locked t)

let record_access t i bytes = t.trace.rev <- (i, bytes) :: t.trace.rev

let get_extent blk local = Int32.to_int (Bytes.get_int32_ne blk.ext (4 * local))

module Snapshot = struct
  type nonrec t = snapshot

  let epoch s = s.epoch
  let store s = s.store
  let domain_bits s = s.bits
  let size s = 1 lsl s.bits
  let bucket_size s = s.store.bucket_size
  let total_bytes s = size s * bucket_size s
  let hash_key s = s.store.hash_key
  let index_of_key s key = index_of_key s.store key

  let sub s ~base ~domain_bits =
    if domain_bits < 0 || domain_bits > s.bits || base < 0 || base > size s - (1 lsl domain_bits)
    then invalid_arg "Lw_store.Snapshot.sub: range out of bounds";
    if domain_bits = s.bits then s else { s with base = s.base + base; bits = domain_bits }

  let check_index s i =
    if i < 0 || i >= size s then invalid_arg "Lw_store.Snapshot: index out of range"

  (* [i] is an index into the view; the trace and the blocks both speak
     the store's global indices. [get] and the masked reference scan
     read the whole bucket. *)
  let record s i = if s.store.trace.on then record_access s.store (s.base + i) s.store.bucket_size

  let locate s i =
    let g = s.base + i in
    (g lsr s.store.block_bits, g land ((1 lsl s.store.block_bits) - 1))

  let get s i =
    check_index s i;
    record s i;
    let b, local = locate s i in
    Bytes.sub_string s.blocks.(b).data (local * s.store.bucket_size) s.store.bucket_size

  let is_empty s i =
    check_index s i;
    let b, local = locate s i in
    Lw_util.Xorbuf.is_zero_range s.blocks.(b).data ~pos:(local * s.store.bucket_size)
      ~len:s.store.bucket_size

  let extent s i =
    check_index s i;
    let b, local = locate s i in
    get_extent s.blocks.(b) local

  (* A whole block's extents are summed as the writer sets them; a view
     inside one block sums its own range. *)
  let scan_bytes s =
    let bb = 1 lsl s.store.block_bits in
    let first = s.base and last = s.base + size s in
    let sum = ref 0 and i = ref first in
    while !i < last do
      let b = !i lsr s.store.block_bits and local = !i land (bb - 1) in
      let run = min (last - !i) (bb - local) in
      let blk = s.blocks.(b) in
      if run = bb then sum := !sum + blk.scanned
      else
        for j = local to local + run - 1 do
          sum := !sum + get_extent blk j
        done;
      i := !i + run
    done;
    !sum

  let xor_bucket_into_masked s i ~mask ~dst =
    check_index s i;
    record s i;
    let b, local = locate s i in
    Lw_util.Xorbuf.xor_into_masked ~mask ~src:s.blocks.(b).data
      ~src_pos:(local * s.store.bucket_size) ~dst ~dst_pos:0 ~len:s.store.bucket_size

  (* Block entry: the requested [base, base+count) run may span several
     CoW blocks (or sit inside one, for a small view); split it into
     per-block runs and hand each, with its extents, to the Xorbuf
     kernel. Tracing stays bucket-granular, once per bucket in order
     with the bytes its extent lets the kernel read, so the
     obliviousness checker observes the access sequence the kernel
     really performs. *)
  let xor_block_into_lanes s ~base ~count ~bits ~bits_pos ~stride ~dsts =
    if count < 0 || base < 0 || base > size s - count then
      invalid_arg "Lw_store.Snapshot: block out of range";
    let bucket = s.store.bucket_size in
    let bb = 1 lsl s.store.block_bits in
    let off = ref 0 in
    while !off < count do
      let i = s.base + base + !off in
      let b = i lsr s.store.block_bits and local = i land (bb - 1) in
      let run = min (count - !off) (bb - local) in
      let blk = s.blocks.(b) in
      if s.store.trace.on then
        for j = 0 to run - 1 do
          record_access s.store (i + j) (get_extent blk (local + j))
        done;
      Lw_util.Xorbuf.xor_extents_lanes ~extents:blk.ext ~extents_pos:(4 * local) ~bits
        ~bits_pos:(bits_pos + !off) ~stride ~count:run ~src:blk.data ~src_pos:(local * bucket)
        ~bucket ~dsts;
      off := !off + run
    done

  (* Tracing goes off and the trace is dropped however [f] exits, so a
     raising probe cannot leave every later read of the store growing
     the list. *)
  let traced s f =
    let tr = s.store.trace in
    tr.on <- true;
    tr.rev <- [];
    Fun.protect
      ~finally:(fun () ->
        tr.on <- false;
        tr.rev <- [])
      (fun () ->
        let r = f () in
        (r, List.rev tr.rev))

  (* Physical block diff: snapshots of one engine share untouched blocks,
     so two epochs differ exactly where the block pointers differ. Always
     correct regardless of how many epochs (retired or not) lie between
     the two — retirement never resurrects a shared block. *)
  let diff_ranges a b =
    if a.store != b.store then invalid_arg "Lw_store.Snapshot.diff_ranges: different stores";
    check_whole "Lw_store.Snapshot.diff_ranges" a;
    check_whole "Lw_store.Snapshot.diff_ranges" b;
    let bb = 1 lsl a.store.block_bits in
    let ranges = ref [] in
    Array.iteri
      (fun blk ab ->
        if ab != b.blocks.(blk) then begin
          let base = blk * bb in
          match !ranges with
          | (rb, rc) :: rest when rb + rc = base -> ranges := (rb, rc + bb) :: rest
          | _ -> ranges := (base, bb) :: !ranges
        end)
      a.blocks;
    List.rev !ranges

  let occupied s =
    let n = ref 0 in
    for i = 0 to size s - 1 do
      if not (is_empty s i) then incr n
    done;
    !n
end

module Writer = struct
  type writer = {
    store : t;
    base_epoch : int;
    blocks : block array;
    dirty : bool array;
    mutable cow_bytes : int;
    mutable mutations : int;
    mutable sealed : bool;
  }

  type nonrec t = writer

  let base_epoch w = w.base_epoch
  let cow_bytes w = w.cow_bytes
  let mutations w = w.mutations

  let dirty_blocks w =
    let n = ref 0 in
    Array.iter (fun d -> if d then incr n) w.dirty;
    !n

  let check_open w =
    if w.sealed then invalid_arg "Lw_store.Writer: writer already sealed"

  let check_index w i =
    if i < 0 || i >= size w.store then invalid_arg "Lw_store.Writer: index out of range"

  (* A writer's own copy of an extent table. In a store read whole every
     extent is the bucket for good, so its blocks keep sharing one table
     ([set_extent] never writes an unchanged entry). *)
  let own_extents w ext =
    if w.store.bucket_size < whole_scan_below then ext else Bytes.copy ext

  (* First touch of a block pays the copy, its extents with it; every
     later write to the same block is free. This is the entire CoW cost
     of an epoch ([cow_bytes] counts the bucket bytes). *)
  let touch w b =
    if not w.dirty.(b) then begin
      let blk = w.blocks.(b) in
      w.blocks.(b) <- { data = Bytes.copy blk.data; ext = own_extents w blk.ext; scanned = blk.scanned };
      w.dirty.(b) <- true;
      w.cow_bytes <- w.cow_bytes + Bytes.length blk.data
    end

  let locate w i = (i lsr w.store.block_bits, i land ((1 lsl w.store.block_bits) - 1))

  let set_extent blk local e =
    let old = get_extent blk local in
    if e <> old then begin
      blk.scanned <- blk.scanned + e - old;
      Bytes.set_int32_ne blk.ext (4 * local) (Int32.of_int e)
    end

  (* The bucket is zeroed past [data], so its extent is [data]'s. *)
  let set w i data =
    check_open w;
    check_index w i;
    if String.length data > w.store.bucket_size then
      invalid_arg "Lw_store.Writer.set: data exceeds bucket";
    let b, local = locate w i in
    touch w b;
    let blk = w.blocks.(b) and off = local * w.store.bucket_size in
    Bytes.fill blk.data off w.store.bucket_size '\x00';
    Bytes.blit_string data 0 blk.data off (String.length data);
    let nz =
      Lw_util.Xorbuf.nonzero_end (Bytes.unsafe_of_string data) ~pos:0 ~len:(String.length data)
    in
    set_extent blk local (extent_of w.store nz);
    w.mutations <- w.mutations + 1

  let clear w i =
    check_open w;
    check_index w i;
    let b, local = locate w i in
    touch w b;
    let blk = w.blocks.(b) in
    Bytes.fill blk.data (local * w.store.bucket_size) w.store.bucket_size '\x00';
    set_extent blk local (extent_of w.store 0);
    w.mutations <- w.mutations + 1

  (* Every block is replaced by fresh pseudorandom bytes, so nothing is
     copied first; the stream is drawn in 64 KiB chunks. Every extent is
     the whole bucket. The writer owns each block it made, so each gets
     its own table unless the store is read whole. *)
  let fill_random w rng =
    check_open w;
    let ext = uniform_extents w.store.block_bits w.store.bucket_size in
    Array.iteri
      (fun b blk ->
        let n = Bytes.length blk.data in
        let fresh = Bytes.create n in
        let pos = ref 0 in
        while !pos < n do
          let len = min 65536 (n - !pos) in
          Bytes.blit_string (Lw_util.Det_rng.bytes rng len) 0 fresh !pos len;
          pos := !pos + len
        done;
        w.blocks.(b) <- { data = fresh; ext = own_extents w ext; scanned = n };
        w.dirty.(b) <- true;
        w.cow_bytes <- w.cow_bytes + n)
      w.blocks;
    w.mutations <- w.mutations + size w.store

  (* Read-your-writes: publisher code validates against the in-progress
     batch (collision checks, overwrite detection) before sealing. *)
  let get w i =
    check_index w i;
    let b, local = locate w i in
    Bytes.sub_string w.blocks.(b).data (local * w.store.bucket_size) w.store.bucket_size

  let is_empty w i =
    check_index w i;
    let b, local = locate w i in
    Lw_util.Xorbuf.is_zero_range w.blocks.(b).data ~pos:(local * w.store.bucket_size)
      ~len:w.store.bucket_size

  let seal ?epoch w =
    check_open w;
    let t = w.store in
    let next = match epoch with None -> w.base_epoch + 1 | Some e -> e in
    if next <= w.base_epoch then
      invalid_arg "Lw_store.Writer.seal: epoch must exceed the base epoch";
    with_lock t (fun () ->
        let cur = current_entry t in
        if cur.snap.epoch <> w.base_epoch then
          invalid_arg "Lw_store.Writer.seal: stale writer (another epoch was sealed)";
        w.sealed <- true;
        (* the writer's block array becomes the new epoch verbatim:
           untouched slots still point at the previous epoch's blocks *)
        let snap = { epoch = next; blocks = w.blocks; store = t; base = 0; bits = t.domain_bits } in
        t.entries <- { snap; pins = 0 } :: t.entries;
        retire_locked t;
        Lw_obs.Metrics.incr m_sealed;
        Lw_obs.Metrics.add m_cow_bytes w.cow_bytes;
        snap)
end

type writer = Writer.t

let writer t =
  with_lock t (fun () ->
      let cur = current_entry t in
      {
        Writer.store = t;
        base_epoch = cur.snap.epoch;
        blocks = Array.copy cur.snap.blocks;
        dirty = Array.make (n_blocks t) false;
        cow_bytes = 0;
        mutations = 0;
        sealed = false;
      })
