(* Process-wide metrics registry: Atomic-backed counters and gauges plus
   log-bucketed latency histograms. Everything is lock-free on the hot
   path; the registry itself (name -> metric) takes a mutex only on
   first registration / snapshot. *)

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let is_enabled () = Atomic.get enabled_flag

(* ---- histogram bucket geometry ------------------------------------- *)

(* Geometric buckets: bucket 0 holds everything <= [lo]; bucket i (i >= 1)
   holds (lo * gamma^(i-1), lo * gamma^i]; the last bucket is an overflow
   bucket. With lo = 1 ns and gamma = sqrt 2, 96 buckets reach ~2 days, so
   any latency this system can produce lands in a real bucket and a
   quantile estimate is off by at most a factor of sqrt 2 (one bucket). *)
let bucket_lo = 1e-9
let bucket_gamma = sqrt 2.
let n_buckets = 96
let log_gamma = log bucket_gamma

let bucket_index v =
  if not (Float.is_finite v) || v <= bucket_lo then 0
  else
    let i = 1 + int_of_float (Float.floor (log (v /. bucket_lo) /. log_gamma)) in
    if i >= n_buckets then n_buckets - 1 else i

(* Inclusive upper edge of bucket [i]; the overflow bucket reports +inf. *)
let bucket_upper i =
  if i >= n_buckets - 1 then Float.infinity
  else bucket_lo *. (bucket_gamma ** float_of_int i)

(* Representative value reported for a quantile landing in bucket [i]:
   the geometric midpoint of the bucket's edges. *)
let bucket_mid i =
  if i = 0 then bucket_lo
  else bucket_lo *. (bucket_gamma ** (float_of_int i -. 0.5))

(* ---- metric kinds --------------------------------------------------- *)

type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  buckets : int Atomic.t array;
  hcount : int Atomic.t;
  hsum : float Atomic.t;
  hmax : float Atomic.t;
}

let rec atomic_add_float cell d =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. d)) then
    atomic_add_float cell d

let rec atomic_max_float cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then
    atomic_max_float cell v

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c 1)

let add c n =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c n)

let counter_value c = Atomic.get c
let set g v = if Atomic.get enabled_flag then Atomic.set g v

let observe h v =
  if Atomic.get enabled_flag then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_index v) 1);
    ignore (Atomic.fetch_and_add h.hcount 1);
    atomic_add_float h.hsum v;
    atomic_max_float h.hmax v
  end

let hist_count h = Atomic.get h.hcount
let hist_sum h = Atomic.get h.hsum
let hist_max h = if Atomic.get h.hcount = 0 then 0. else Atomic.get h.hmax

let fresh_histogram () =
  {
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    hcount = Atomic.make 0;
    hsum = Atomic.make 0.;
    hmax = Atomic.make 0.;
  }

let scratch_histogram = fresh_histogram

(* Histogram merge: bucketing is deterministic, so adding [src]'s bucket
   counts into [into] yields exactly the histogram that would have
   resulted from observing both sample streams into one histogram — no
   bucket counts are lost or re-binned. Aggregation is not gated on
   [is_enabled]: merging reads recorded state, it doesn't record. *)
let merge_into ~into src =
  if into == src then invalid_arg "Lw_obs.Metrics.merge_into: cannot merge a histogram into itself";
  Array.iteri
    (fun i b ->
      let c = Atomic.get b in
      if c > 0 then ignore (Atomic.fetch_and_add into.buckets.(i) c))
    src.buckets;
  let c = Atomic.get src.hcount in
  if c > 0 then begin
    ignore (Atomic.fetch_and_add into.hcount c);
    atomic_add_float into.hsum (Atomic.get src.hsum);
    atomic_max_float into.hmax (Atomic.get src.hmax)
  end

(* Nearest-rank quantile from the buckets. The estimate is the geometric
   midpoint of the bucket the rank falls in, clamped to the observed max
   (which necessarily lies in the last non-empty bucket). *)
let quantile h q =
  let total = Atomic.get h.hcount in
  if total = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let acc = ref 0 and found = ref (n_buckets - 1) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + Atomic.get h.buckets.(i);
         if !acc >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min (bucket_mid !found) (hist_max h)
  end

(* ---- registry ------------------------------------------------------- *)

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some _ ->
          invalid_arg
            ("Lw_obs.Metrics: " ^ name ^ " already registered with a different kind (wanted counter)")
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add registry name (C c);
          c)

let gauge name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (G g) -> g
      | Some _ ->
          invalid_arg
            ("Lw_obs.Metrics: " ^ name ^ " already registered with a different kind (wanted gauge)")
      | None ->
          let g = Atomic.make 0. in
          Hashtbl.add registry name (G g);
          g)

let histogram name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (H h) -> h
      | Some _ ->
          invalid_arg
            ("Lw_obs.Metrics: " ^ name ^ " already registered with a different kind (wanted histogram)")
      | None ->
          let h = fresh_histogram () in
          Hashtbl.add registry name (H h);
          h)

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c 0
          | G g -> Atomic.set g 0.
          | H h ->
              Array.iter (fun b -> Atomic.set b 0) h.buckets;
              Atomic.set h.hcount 0;
              Atomic.set h.hsum 0.;
              Atomic.set h.hmax 0.)
        registry)

(* ---- snapshot (for the exporters) ----------------------------------- *)

type hist_snapshot = {
  count : int;
  sum : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  nonzero_buckets : (float * int) list;
      (* (inclusive upper edge, count), ascending, empty buckets elided *)
}

type snapshot_item =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * hist_snapshot

let snapshot_hist h =
  let nonzero = ref [] in
  for i = n_buckets - 1 downto 0 do
    let c = Atomic.get h.buckets.(i) in
    if c > 0 then nonzero := (bucket_upper i, c) :: !nonzero
  done;
  {
    count = hist_count h;
    sum = hist_sum h;
    max = hist_max h;
    p50 = quantile h 0.50;
    p95 = quantile h 0.95;
    p99 = quantile h 0.99;
    nonzero_buckets = !nonzero;
  }

let snapshot () =
  let items =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            (match m with
            | C c -> Counter (name, Atomic.get c)
            | G g -> Gauge (name, Atomic.get g)
            | H h -> Histogram (name, snapshot_hist h))
            :: acc)
          registry [])
  in
  List.sort
    (fun a b ->
      let name = function
        | Counter (n, _) | Gauge (n, _) | Histogram (n, _) -> n
      in
      String.compare (name a) (name b))
    items
