(* Interior node of the hierarchical fan-out tree: an [Inner] node owns
   [levels] bits of the shard index and splits an incoming key once into
   [2^levels] sub-keys ([Distributed.split], i.e. [Dpf.eval_prefixes] +
   [make_subkey]); a [Leaf] hands its sub-key to one data shard. Re-basing
   composes, so the key a leaf receives is bit-identical to the one the
   flat [Distributed.split] fan-out would have produced. *)
type tree_node = Leaf of int | Inner of { levels : int; children : tree_node array }

type tree_rep = { root : tree_node; tdepth : int; tnodes : int }

type t = {
  domain_bits : int;
  shard_bits : int;
  bucket_size : int;
  shards : Lw_pir.Server.t array;
  down : bool array;
  epochs : int array;
      (* which store epoch each shard's copy reflects: answers may only be
         combined while every shard sits at the same epoch *)
  mutable pinned : (Lw_store.t * Lw_store.Snapshot.t) option;
      (* the engine snapshot the shard copies were refreshed from last *)
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
let m_epoch_refusals = Lw_obs.Metrics.counter "zltp.frontend.epoch_refusals"
let g_shards_down = Lw_obs.Metrics.gauge "zltp.frontend.shards_down"
let g_epoch = Lw_obs.Metrics.gauge "zltp.frontend.epoch"

let shard_histogram i =
  Lw_obs.Metrics.histogram (Printf.sprintf "zltp.frontend.shard%02d.answer_seconds" i)

let create ~domain_bits ~shard_bits ~bucket_size =
  if shard_bits <= 0 || shard_bits >= domain_bits then
    invalid_arg "Zltp_frontend.create: shard_bits must be in (0, domain_bits)";
  let rem = domain_bits - shard_bits in
  let shards =
    Array.init (1 lsl shard_bits) (fun _ ->
        Lw_pir.Server.create (Lw_pir.Bucket_db.create ~domain_bits:rem ~bucket_size))
  in
  {
    domain_bits;
    shard_bits;
    bucket_size;
    shards;
    down = Array.make (1 lsl shard_bits) false;
    epochs = Array.make (1 lsl shard_bits) 0;
    pinned = None;
    shard_hist = Array.init (1 lsl shard_bits) shard_histogram;
    scan_domains = 1;
    tree = None;
  }

let of_db db ~shard_bits =
  let domain_bits = Lw_pir.Bucket_db.domain_bits db in
  let t = create ~domain_bits ~shard_bits ~bucket_size:(Lw_pir.Bucket_db.bucket_size db) in
  let rem = domain_bits - shard_bits in
  for i = 0 to Lw_pir.Bucket_db.size db - 1 do
    if not (Lw_pir.Bucket_db.is_empty db i) then begin
      let shard = i lsr rem and local = i land ((1 lsl rem) - 1) in
      Lw_pir.Bucket_db.set (Lw_pir.Server.db t.shards.(shard)) local (Lw_pir.Bucket_db.get db i)
    end
  done;
  t

let domain_bits t = t.domain_bits
let shard_bits t = t.shard_bits
let shard_count t = Array.length t.shards
let bucket_size t = t.bucket_size
let shard_histograms t = Array.copy t.shard_hist

(* ---- epoch bookkeeping over the versioned engine ---- *)

let announced_epoch t = Array.fold_left max 0 t.epochs

let epoch_agreed t =
  let e = t.epochs.(0) in
  if Array.for_all (fun x -> x = e) t.epochs then Some e else None

let set_shard_epoch t i epoch =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Zltp_frontend.set_shard_epoch";
  t.epochs.(i) <- epoch;
  Lw_obs.Metrics.set g_epoch (float_of_int (announced_epoch t))

(* Copy one shard's slice of a snapshot into the shard's flat database:
   either the whole slice, or only the [ranges] (global bucket runs)
   intersecting it. *)
let copy_slice t snap shard ranges =
  let rem = t.domain_bits - t.shard_bits in
  let db = Lw_pir.Server.db t.shards.(shard) in
  let lo = shard lsl rem and hi = (shard + 1) lsl rem in
  let copy_range base count =
    let from = max base lo and upto = min (base + count) hi in
    for global = from to upto - 1 do
      let local = global land ((1 lsl rem) - 1) in
      if Lw_store.Snapshot.is_empty snap global then Lw_pir.Bucket_db.clear db local
      else Lw_pir.Bucket_db.set db local (Lw_store.Snapshot.get snap global)
    done
  in
  (match ranges with
  | None -> copy_range lo (hi - lo)
  | Some rs -> List.iter (fun (base, count) -> copy_range base count) rs);
  t.epochs.(shard) <- Lw_store.Snapshot.epoch snap

let of_store st ~shard_bits =
  let snap = Lw_store.pin_latest st in
  (* the pin is only recorded in [t.pinned] once the copies are done; if
     anything in between raises, release it instead of leaking the epoch *)
  let t =
    try
      let t =
        create ~domain_bits:(Lw_store.domain_bits st) ~shard_bits
          ~bucket_size:(Lw_store.bucket_size st)
      in
      for shard = 0 to Array.length t.shards - 1 do
        copy_slice t snap shard None
      done;
      t
    with e ->
      Lw_store.unpin st snap;
      raise e
  in
  t.pinned <- Some (st, snap);
  Lw_obs.Metrics.set g_epoch (float_of_int (announced_epoch t));
  t

(* Bring every shard up to the engine's current epoch, copying only the
   bucket ranges whose CoW blocks actually changed since the epoch the
   shard last copied ([Snapshot.diff_ranges]); a shard at any other epoch
   (operator intervention, aborted refresh) is re-copied in full.

   [?abort_after] is a test/chaos hook: stop after updating that many
   shards, leaving the rest at their old epoch — the mixed-epoch state
   the answer paths must refuse. The new snapshot replaces the pin either
   way, so a later refresh full-copies the stragglers (their recorded
   epoch no longer matches the pinned one). *)
let refresh ?abort_after t =
  let st, old_snap =
    match t.pinned with
    | Some p -> p
    | None -> invalid_arg "Zltp_frontend.refresh: front-end not backed by a store"
  in
  let snap = Lw_store.pin_latest st in
  (* the new pin replaces the old one only after the copies; if a copy
     raises, release the new pin and leave the old state in place *)
  let updated =
    try
      let new_epoch = Lw_store.Snapshot.epoch snap in
      let old_epoch = Lw_store.Snapshot.epoch old_snap in
      let diff = lazy (Lw_store.Snapshot.diff_ranges old_snap snap) in
      let updated = ref 0 in
      let budget = Option.value abort_after ~default:max_int in
      for shard = 0 to Array.length t.shards - 1 do
        if t.epochs.(shard) <> new_epoch && !updated < budget then begin
          if t.epochs.(shard) = old_epoch then
            copy_slice t snap shard (Some (Lazy.force diff))
          else copy_slice t snap shard None;
          incr updated
        end
      done;
      !updated
    with e ->
      Lw_store.unpin st snap;
      raise e
  in
  t.pinned <- Some (st, snap);
  Lw_obs.Metrics.set g_epoch (float_of_int (announced_epoch t));
  Lw_store.unpin st old_snap;
  updated

let shards_down t =
  Array.fold_left (fun n d -> if d then n + 1 else n) 0 t.down

let set_shard_down t i down =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Zltp_frontend.set_shard_down";
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

(* The never-partial-XOR invariant, extended to epochs: shares computed
   against different epochs XOR into silent garbage exactly like shares
   with a shard missing, so a mixed-epoch shard fleet refuses with a
   structured error instead of combining. *)
let check_epochs t =
  match epoch_agreed t with
  | Some _ -> Ok ()
  | None ->
      let l =
        String.concat ","
          (Array.to_list (Array.mapi (fun i e -> Printf.sprintf "%d:%d" i e) t.epochs))
      in
      Error (Printf.sprintf "epoch mismatch across shards: %s" l)

let route t global =
  if global < 0 || global >= 1 lsl t.domain_bits then
    invalid_arg "Zltp_frontend: index out of domain";
  let rem = t.domain_bits - t.shard_bits in
  (global lsr rem, global land ((1 lsl rem) - 1))

let set_bucket t global data =
  let shard, local = route t global in
  Lw_pir.Bucket_db.set (Lw_pir.Server.db t.shards.(shard)) local data

let get_bucket t global =
  let shard, local = route t global in
  Lw_pir.Bucket_db.get (Lw_pir.Server.db t.shards.(shard)) local

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
let answer_shard t i sub =
  if t.scan_domains > 1 then
    Lw_pir.Server.answer_domains ~domains:t.scan_domains t.shards.(i) sub
  else Lw_pir.Server.answer t.shards.(i) sub

let answer_batch_shard t i subs =
  if t.scan_domains > 1 then
    Lw_pir.Server.answer_batch_domains ~domains:t.scan_domains t.shards.(i) subs
  else Lw_pir.Server.answer_batch t.shards.(i) subs

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
let answer_via_tree t rep k =
  let rec go node key =
    match node with
    | Leaf s -> timed_shard t s (fun () -> answer_shard t s key)
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
  let out = Array.make (Array.length t.shards) k in
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

let answer t k =
  check_key t k;
  Lw_obs.Span.with_ ~name:"zltp.frontend.answer" (fun () ->
      let share =
        match t.tree with
        | Some (_, rep) -> answer_via_tree t rep k
        | None ->
            let subs = Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits in
            let shares =
              Array.mapi (fun i sub -> timed_shard t i (fun () -> answer_shard t i sub)) subs
            in
            combine_shares t shares
      in
      Lw_obs.Metrics.incr m_answers;
      share)

let answer_result t k =
  match check_down t with
  | Error _ as e ->
      Lw_obs.Metrics.incr m_refusals;
      e
  | Ok () -> (
      match check_epochs t with
      | Error _ as e ->
          Lw_obs.Metrics.incr m_epoch_refusals;
          e
      | Ok () -> Ok (answer t k))

(* Batched private-GET across the shard fleet: split every query's key
   once, then hand each shard the whole batch of its sub-keys so it runs
   the batch scan kernel ([Lw_pir.Server.answer_batch]) — one
   streamed traversal of the shard's slice for the whole batch instead of
   one per query. Query [q]'s answer is the XOR of its per-shard shares,
   exactly as in [answer]. *)
let answer_batch t keys =
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
          Array.mapi
            (fun s _shard ->
              (* [answer_batch_shard] branches only on [t.scan_domains],
                 public serving config — not on the sub-keys *)
              (* lw-lint: allow taint lines=2 *)
              timed_shard t s (fun () ->
                  answer_batch_shard t s (Array.map (fun sub -> sub.(s)) subs)))
            t.shards
        in
        Lw_obs.Metrics.add m_batch_queries n;
        Array.init n (fun q -> combine_shares t (Array.map (fun shares -> shares.(q)) by_shard)))

let answer_batch_result t keys =
  match check_down t with
  | Error _ as e ->
      Lw_obs.Metrics.incr m_refusals;
      e
  | Ok () -> (
      match check_epochs t with
      | Error _ as e ->
          Lw_obs.Metrics.incr m_epoch_refusals;
          e
      | Ok () -> Ok (answer_batch t keys))

type shard_timing = { shard : int; eval_s : float; scan_s : float }

let answer_timed t k =
  check_key t k;
  let subs = Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits in
  let clock = Lw_obs.Span.clock () in
  let timings = ref [] in
  let shares =
    Array.mapi
      (fun i sub ->
        let t0 = Lw_obs.Clock.now clock in
        let bits = Lw_pir.Server.eval_bits t.shards.(i) sub in
        let t1 = Lw_obs.Clock.now clock in
        let share = Lw_pir.Server.scan t.shards.(i) bits in
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
        let share = Lw_pir.Server.answer t.shards.(i) subs.(i) in
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
