(* One immutable view set: a pinned snapshot and, per shard, a server over
   the zero-copy range view of that snapshot the shard owns. Every shard
   of a view set therefore serves the same epoch by construction. *)
type views = { snap : Lw_store.Snapshot.t; shards : Lw_pir.Server.t array }

type t = {
  store : Lw_store.t;
  domain_bits : int;
  shard_bits : int;
  bucket_size : int;
  views : views Atomic.t;
      (* swapped whole by [refresh]; an answer reads it once and uses that
         view set throughout, so it can never mix two epochs *)
  down : bool array;
  shard_hist : Lw_obs.Metrics.histogram array;
      (* per-shard answer latency; shared by name across front-ends of the
         same width, which is what an operator wants from a process dump *)
  mutable scan_domains : int;
      (* workers each shard's scan may use (Server.answer_batch ~domains);
         1 = the serial fused kernel *)
}

let m_answers = Lw_obs.Metrics.counter "zltp.frontend.answers"
let m_batch_queries = Lw_obs.Metrics.counter "zltp.frontend.batch_queries"
let m_refusals = Lw_obs.Metrics.counter "zltp.frontend.degraded_refusals"
let g_shards_down = Lw_obs.Metrics.gauge "zltp.frontend.shards_down"
let g_epoch = Lw_obs.Metrics.gauge "zltp.frontend.epoch"

let shard_histogram i =
  Lw_obs.Metrics.histogram (Printf.sprintf "zltp.frontend.shard%02d.answer_seconds" i)

let views_of snap ~shard_bits =
  let rem = Lw_store.Snapshot.domain_bits snap - shard_bits in
  {
    snap;
    shards =
      Array.init (1 lsl shard_bits) (fun i ->
          Lw_pir.Server.of_snapshot
            (Lw_store.Snapshot.sub snap ~base:(i lsl rem) ~domain_bits:rem));
  }

let epoch vs = Lw_store.Snapshot.epoch vs.snap

let of_store st ~shard_bits =
  let domain_bits = Lw_store.domain_bits st in
  if shard_bits <= 0 || shard_bits >= domain_bits then
    invalid_arg "Zltp_frontend.of_store: shard_bits must be in (0, domain_bits)";
  let views = views_of (Lw_store.pin_latest st) ~shard_bits in
  Lw_obs.Metrics.set g_epoch (float_of_int (epoch views));
  {
    store = st;
    domain_bits;
    shard_bits;
    bucket_size = Lw_store.bucket_size st;
    views = Atomic.make views;
    down = Array.make (1 lsl shard_bits) false;
    shard_hist = Array.init (1 lsl shard_bits) shard_histogram;
    scan_domains = 1;
  }

let domain_bits t = t.domain_bits
let shard_bits t = t.shard_bits
let shard_count t = 1 lsl t.shard_bits
let bucket_size t = t.bucket_size
let shard_histograms t = Array.copy t.shard_hist
let current t = Atomic.get t.views
let announced_epoch t = epoch (current t)

(* Pin the engine's latest epoch, build its view set and swap it in with
   one write; the pin the replaced view set held is released. Answers
   already running keep the view set they read, whose blocks the GC
   keeps alive, so they finish on their own epoch. Nothing is copied. *)
let refresh t =
  let next = views_of (Lw_store.pin_latest t.store) ~shard_bits:t.shard_bits in
  if epoch next = announced_epoch t then begin
    Lw_store.unpin t.store next.snap;
    0
  end
  else begin
    let old = Atomic.exchange t.views next in
    Lw_store.unpin t.store old.snap;
    Lw_obs.Metrics.set g_epoch (float_of_int (epoch next));
    shard_count t
  end

let shards_down t =
  Array.fold_left (fun n d -> if d then n + 1 else n) 0 t.down

let set_shard_down t i down =
  if i < 0 || i >= shard_count t then invalid_arg "Zltp_frontend.set_shard_down";
  t.down.(i) <- down;
  Lw_obs.Metrics.set g_shards_down (float_of_int (shards_down t))

(* An answer share is the XOR over every shard's contribution, so a single
   unreachable shard makes the whole share wrong — the only safe reaction
   is a structured refusal the client can act on (fail over), never a
   partial XOR. *)
let check_down t =
  if shards_down t = 0 then Ok ()
  else begin
    let downs = ref [] in
    Array.iteri (fun i d -> if d then downs := i :: !downs) t.down;
    Error
      (Printf.sprintf "shards down: %s"
         (String.concat "," (List.rev_map string_of_int !downs)))
  end

let check_key t k =
  if Lw_dpf.Dpf.domain_bits k <> t.domain_bits then
    invalid_arg "Zltp_frontend.answer: key domain mismatch"

let combine_shares t shares =
  let acc = Bytes.make t.bucket_size '\x00' in
  Array.iter
    (fun share -> Lw_util.Xorbuf.xor_string_into ~src:share ~src_pos:0 ~dst:acc ~dst_pos:0
        ~len:t.bucket_size)
    shares;
  Bytes.unsafe_to_string acc

(* Time one shard's contribution against the span clock and feed the
   per-shard histogram; with metrics disabled this is the bare call. *)
let timed_shard t i f =
  if Lw_obs.Metrics.is_enabled () then begin
    let c = Lw_obs.Span.clock () in
    let t0 = Lw_obs.Clock.now c in
    let share = f () in
    Lw_obs.Metrics.observe t.shard_hist.(i) (Lw_obs.Clock.now c -. t0);
    share
  end
  else f ()

(* ---- shard-level scan parallelism knob ---- *)

let set_scan_domains t n =
  if n < 1 then invalid_arg "Zltp_frontend.set_scan_domains: need at least one domain";
  t.scan_domains <- n

let scan_domains t = t.scan_domains

(* The one answer path: split every key once into per-shard sub-keys,
   hand each shard the whole batch of its sub-keys so it runs the
   batch scan kernel — one streamed traversal of the shard's slice for
   the whole batch — and XOR query [q]'s per-shard shares. It reads one
   view set and scans only its shards. A batch of one is a single answer,
   counted and spanned as one. *)
let answer_batch_views t vs keys =
  Array.iter (check_key t) keys;
  let n = Array.length keys in
  if n = 0 then [||]
  else
    Lw_obs.Span.with_
      ~name:(if n = 1 then "zltp.frontend.answer" else "zltp.frontend.answer_batch")
      (fun () ->
        let subs = Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits) keys in
        let by_shard =
          Array.init (shard_count t) (fun s ->
              timed_shard t s (fun () ->
                  Lw_pir.Server.answer_batch ~domains:t.scan_domains vs.shards.(s)
                    (Array.map (fun sub -> sub.(s)) subs)))
        in
        Lw_obs.Metrics.add (if n = 1 then m_answers else m_batch_queries) n;
        Array.init n (fun q -> combine_shares t (Array.map (fun shares -> shares.(q)) by_shard)))

let answer_batch t keys = answer_batch_views t (current t) keys
let answer t k = (answer_batch t [| k |]).(0)

let answer_batch_result t vs keys =
  match check_down t with
  | Error _ as e ->
      Lw_obs.Metrics.incr m_refusals;
      e
  | Ok () -> Ok (answer_batch_views t vs keys)
