(* Interior node of the hierarchical fan-out tree: an [Inner] node owns
   [levels] bits of the shard index and splits an incoming key once into
   [2^levels] sub-keys ([Distributed.split], i.e. [Dpf.eval_prefixes] +
   [make_subkey]); a [Leaf] hands its sub-key to one data shard. Re-basing
   composes, so the key a leaf receives is bit-identical to the one the
   flat [Distributed.split] fan-out would have produced. *)
type tree_node = Leaf of int | Inner of { levels : int; children : tree_node array }

type tree_rep = { root : tree_node; tdepth : int; tnodes : int }

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
      (* workers each shard's scan kernel may use (Server.answer_domains);
         1 = the serial fused kernel *)
  mutable tree : (int * tree_rep) option;
      (* (fanout_bits, tree): when set, single-key answers route through
         the hierarchical fan-out instead of the flat split *)
}

let m_answers = Lw_obs.Metrics.counter "zltp.frontend.answers"
let m_tree_answers = Lw_obs.Metrics.counter "zltp.frontend.tree_answers"
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
    tree = None;
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

let shard_down t i = t.down.(i)

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

(* One shard's contribution, through the parallel scan kernel when the
   knob asks for it (Server.answer_domains applies its own work-size
   cutoff, so small shards stay on the serial kernel either way). *)
let answer_shard t vs i sub =
  if t.scan_domains > 1 then
    Lw_pir.Server.answer_domains ~domains:t.scan_domains vs.shards.(i) sub
  else Lw_pir.Server.answer vs.shards.(i) sub

let answer_batch_shard t vs i subs =
  if t.scan_domains > 1 then
    Lw_pir.Server.answer_batch_domains ~domains:t.scan_domains vs.shards.(i) subs
  else Lw_pir.Server.answer_batch vs.shards.(i) subs

(* ---- hierarchical fan-out tree ---- *)

let build_tree t fanout_bits =
  if fanout_bits < 1 then invalid_arg "Zltp_frontend.set_tree_fanout: fanout_bits must be >= 1";
  let nodes = ref 0 and depth = ref 0 in
  let rec mk level levels_left base =
    incr nodes;
    if level > !depth then depth := level;
    if levels_left = 0 then Leaf base
    else begin
      let b = min fanout_bits levels_left in
      let rem = levels_left - b in
      Inner
        {
          levels = b;
          children = Array.init (1 lsl b) (fun i -> mk (level + 1) rem (base lor (i lsl rem)));
        }
    end
  in
  let root = mk 0 t.shard_bits 0 in
  { root; tdepth = !depth; tnodes = !nodes }

let set_tree_fanout t fanout =
  match fanout with
  | None -> t.tree <- None
  | Some b -> t.tree <- Some (b, build_tree t b)

let tree_fanout t = Option.map fst t.tree
let tree_depth t = match t.tree with Some (_, r) -> r.tdepth | None -> 0
let tree_nodes t = match t.tree with Some (_, r) -> r.tnodes | None -> 0

(* Walk the tree: an interior node pays one [2^levels]-way key split —
   O(2^fanout) small-prefix DPF expansions — and each leaf pays only its
   shard's small-domain evaluation, so one query reaches N shards with
   O(N) interior splits of depth O(log N) instead of N full-domain
   evaluations at the root. Sub-key re-basing composes (the child key of
   a child key shares the original correction words), so the shares this
   walk XORs are bit-identical to the flat fan-out's. *)
let answer_via_tree t vs rep k =
  let rec go node key =
    match node with
    | Leaf s -> timed_shard t s (fun () -> answer_shard t vs s key)
    | Inner { levels; children } ->
        let subs = Lw_dpf.Distributed.split key ~shard_bits:levels in
        let acc = Bytes.make t.bucket_size '\x00' in
        Array.iteri
          (fun i child ->
            (* the branches [go] takes are on the PUBLIC tree shape
               (Leaf/Inner) and scan config, never on key bits — the
               interprocedural taint over-approximates here *)
            (* lw-lint: allow taint lines=1 *)
            let share = go child subs.(i) in
            Lw_util.Xorbuf.xor_string_into ~src:share ~src_pos:0 ~dst:acc ~dst_pos:0
              ~len:t.bucket_size)
          children;
        Bytes.unsafe_to_string acc
  in
  Lw_obs.Metrics.incr m_tree_answers;
  go rep.root k

(* The batched tree walk: one pass over the tree per key, collecting the
   sub-key each leaf would have received into a shard-indexed array.
   Re-basing composes exactly as in [answer_via_tree], so [out.(s)] is
   bit-identical to the flat [Distributed.split] sub-key for shard [s] —
   which is what lets batches (and the keyword verb riding them) use the
   hierarchical fan-out and still feed the shards' batch scan kernel. *)
let leaf_subkeys t rep k =
  let out = Array.make (shard_count t) k in
  let rec go node key =
    match node with
    | Leaf s -> out.(s) <- key
    | Inner { levels; children } ->
        let subs = Lw_dpf.Distributed.split key ~shard_bits:levels in
        (* [go] branches on the PUBLIC tree shape (Leaf/Inner), never on
           key bits — the interprocedural taint over-approximates here *)
        (* lw-lint: allow taint lines=1 *)
        Array.iteri (fun i child -> go child subs.(i)) children
  in
  go rep.root k;
  out

(* Every answer path reads one view set and scans only its shards. *)
let answer_views t vs k =
  check_key t k;
  Lw_obs.Span.with_ ~name:"zltp.frontend.answer" (fun () ->
      let share =
        match t.tree with
        | Some (_, rep) -> answer_via_tree t vs rep k
        | None ->
            let subs = Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits in
            let shares =
              Array.mapi (fun i sub -> timed_shard t i (fun () -> answer_shard t vs i sub)) subs
            in
            combine_shares t shares
      in
      Lw_obs.Metrics.incr m_answers;
      share)

let answer t k = answer_views t (current t) k

let when_up t f =
  match check_down t with
  | Error _ as e ->
      Lw_obs.Metrics.incr m_refusals;
      e
  | Ok () -> Ok (f ())

let answer_result t vs k = when_up t (fun () -> answer_views t vs k)

(* Batched private-GET across the shard fleet: split every query's key
   once, then hand each shard the whole batch of its sub-keys so it runs
   the batch scan kernel ([Lw_pir.Server.answer_batch]) — one
   streamed traversal of the shard's slice for the whole batch instead of
   one per query. Query [q]'s answer is the XOR of its per-shard shares,
   exactly as in [answer]. *)
let answer_batch_views t vs keys =
  Array.iter (check_key t) keys;
  let n = Array.length keys in
  if n = 0 then [||]
  else
    Lw_obs.Span.with_ ~name:"zltp.frontend.answer_batch" (fun () ->
        let subs =
          match t.tree with
          | Some (_, rep) ->
              Lw_obs.Metrics.add m_tree_answers n;
              Array.map (fun k -> leaf_subkeys t rep k) keys
          | None -> Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits) keys
        in
        let by_shard =
          Array.init (shard_count t) (fun s ->
              (* [answer_batch_shard] branches only on [t.scan_domains],
                 public serving config — not on the sub-keys *)
              (* lw-lint: allow taint lines=2 *)
              timed_shard t s (fun () ->
                  answer_batch_shard t vs s (Array.map (fun sub -> sub.(s)) subs)))
        in
        Lw_obs.Metrics.add m_batch_queries n;
        Array.init n (fun q -> combine_shares t (Array.map (fun shares -> shares.(q)) by_shard)))

let answer_batch t keys = answer_batch_views t (current t) keys
let answer_batch_result t vs keys = when_up t (fun () -> answer_batch_views t vs keys)

type shard_timing = { shard : int; eval_s : float; scan_s : float }

let answer_timed t k =
  check_key t k;
  let vs = current t in
  let subs = Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits in
  let clock = Lw_obs.Span.clock () in
  let timings = ref [] in
  let shares =
    Array.mapi
      (fun i sub ->
        let t0 = Lw_obs.Clock.now clock in
        let bits = Lw_pir.Server.eval_bits vs.shards.(i) sub in
        let t1 = Lw_obs.Clock.now clock in
        let share = Lw_pir.Server.scan vs.shards.(i) bits in
        let t2 = Lw_obs.Clock.now clock in
        timings := { shard = i; eval_s = t1 -. t0; scan_s = t2 -. t1 } :: !timings;
        Lw_obs.Metrics.observe t.shard_hist.(i) (t2 -. t0);
        share)
      subs
  in
  (combine_shares t shares, List.rev !timings)

type shard_span = { span_shard : int; elapsed_s : float }

let answer_parallel_timed ?num_domains ?fault t k =
  check_key t k;
  let vs = current t in
  let workers =
    match num_domains with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let subs = Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits in
  let n = Array.length subs in
  let shares = Array.make n None in
  let elapsed = Array.make n 0. in
  let next = Atomic.make 0 in
  let clock = Lw_obs.Span.clock () in
  (* Each worker claims distinct indices through [Atomic.fetch_and_add],
     so the [shares] and [elapsed] writes below are disjoint by
     construction, and the joins before the combine give this domain the
     happens-before edge back; no lock is needed. *)
  (* lw-lint: allow race lines=16 *)
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match fault with Some f -> f i | None -> ());
        let t0 = Lw_obs.Clock.now clock in
        let share = Lw_pir.Server.answer vs.shards.(i) subs.(i) in
        elapsed.(i) <- Lw_obs.Clock.now clock -. t0;
        Lw_obs.Metrics.observe t.shard_hist.(i) elapsed.(i);
        shares.(i) <- Some share;
        go ()
      end
    in
    go ()
  in
  let domains = List.init (min workers n) (fun _ -> Domain.spawn worker) in
  (* Join every domain before acting on any failure, so a raising worker
     can neither leak the other domains nor let a partially-filled share
     array reach the XOR combine below. *)
  let first_failure =
    List.fold_left
      (fun acc d ->
        match Domain.join d with
        | () -> acc
        | exception e -> ( match acc with None -> Some e | Some _ -> acc))
      None domains
  in
  (match first_failure with Some e -> raise e | None -> ());
  (* unreachable when no worker raised: fetch_and_add hands out each
     index exactly once and a non-raising worker always stores it *)
  let all = Array.map (fun s -> Option.get s) shares in
  Lw_obs.Metrics.incr m_answers;
  ( combine_shares t all,
    Array.mapi (fun i e -> { span_shard = i; elapsed_s = e }) elapsed )

let answer_parallel ?num_domains ?fault t k =
  fst (answer_parallel_timed ?num_domains ?fault t k)
