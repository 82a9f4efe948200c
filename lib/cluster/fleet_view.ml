(* Parse Lw_obs.Export.to_prometheus text back into metrics and fold
   per-process series into fleet totals. The exposition's cumulative
   _bucket{le="%.17g"} samples de-cumulate to exact per-bucket counts;
   observing each inclusive upper edge le (bucket_upper round-trips
   through %.17g) lands the reconstructed samples in exactly the bucket
   they came from, so merge_into yields the same bucket counts as one
   process observing every sample. *)

module Metrics = Lw_obs.Metrics

type hist_acc = {
  merged : Metrics.histogram;  (* scratch: fleet-wide bucket counts *)
  mutable sum : float;  (* exact, from the scraped _sum samples *)
  mutable max : float;  (* exact, from the scraped _max samples *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist_acc) Hashtbl.t;
  mutable sources : int;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
    sources = 0;
  }

let sanitize name =
  String.map
    (fun ch ->
      match ch with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch | _ -> '_')
    name

(* one histogram being rebuilt from a single scrape *)
type scrape_hist = {
  mutable buckets : (float * int) list;  (* (le, de-cumulated count), reversed *)
  mutable prev_cum : int;
  mutable total : int;  (* from the +Inf bucket *)
  mutable s_sum : float;
  mutable s_max : float;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ingest t text =
  let cur = ref None in
  let scrape : (string, scrape_hist) Hashtbl.t = Hashtbl.create 8 in
  let scrape_of name =
    match Hashtbl.find_opt scrape name with
    | Some h -> h
    | None ->
        let h = { buckets = []; prev_cum = 0; total = 0; s_sum = 0.; s_max = 0. } in
        Hashtbl.add scrape name h;
        h
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if starts_with ~prefix:"# TYPE " line then begin
           match
             String.split_on_char ' '
               (String.sub line 7 (String.length line - 7))
           with
           | [ name; kind ] -> cur := Some (name, kind)
           | _ -> failwith ("Fleet_view.ingest: bad TYPE line: " ^ line)
         end
         else if line.[0] = '#' then ()
         else
           match !cur with
           | None -> ()  (* sample outside any TYPE block: not ours, skip *)
           | Some (name, kind) -> (
               let sp =
                 try String.rindex line ' '
                 with Not_found ->
                   failwith ("Fleet_view.ingest: bad sample line: " ^ line)
               in
               let lhs = String.sub line 0 sp in
               let v =
                 try float_of_string (String.sub line (sp + 1) (String.length line - sp - 1))
                 with Failure _ ->
                   failwith ("Fleet_view.ingest: bad sample value: " ^ line)
               in
               match kind with
               | "counter" when lhs = name ->
                   let r =
                     match Hashtbl.find_opt t.counters name with
                     | Some r -> r
                     | None ->
                         let r = ref 0 in
                         Hashtbl.add t.counters name r;
                         r
                   in
                   r := !r + int_of_float v
               | "gauge" when lhs = name ->
                   let r =
                     match Hashtbl.find_opt t.gauges name with
                     | Some r -> r
                     | None ->
                         let r = ref 0. in
                         Hashtbl.add t.gauges name r;
                         r
                   in
                   r := v
               | "summary" ->
                   if starts_with ~prefix:(name ^ "{quantile=") lhs then ()
                   else if starts_with ~prefix:(name ^ "_bucket{le=\"") lhs then begin
                     let pre = String.length (name ^ "_bucket{le=\"") in
                     let le_str = String.sub lhs pre (String.length lhs - pre - 2) in
                     let h = scrape_of name in
                     if le_str = "+Inf" then h.total <- int_of_float v
                     else begin
                       let cum = int_of_float v in
                       let le = float_of_string le_str in
                       h.buckets <- (le, cum - h.prev_cum) :: h.buckets;
                       h.prev_cum <- cum
                     end
                   end
                   else if lhs = name ^ "_max" then (scrape_of name).s_max <- v
                   else if lhs = name ^ "_sum" then (scrape_of name).s_sum <- v
                   else if lhs = name ^ "_count" then ()
                   else failwith ("Fleet_view.ingest: bad summary sample: " ^ line)
               | _ -> failwith ("Fleet_view.ingest: unknown kind " ^ kind)))
  ;
  Hashtbl.iter
    (fun name (h : scrape_hist) ->
      let scratch = Metrics.scratch_histogram () in
      List.iter
        (fun (le, c) ->
          for _ = 1 to c do
            Metrics.observe scratch le
          done)
        (List.rev h.buckets);
      (* samples past the largest finite edge: the process max is one of
         them, and by construction the largest, so it lands in the same
         overflow bucket every one of them occupied *)
      for _ = 1 to h.total - h.prev_cum do
        Metrics.observe scratch h.s_max
      done;
      let acc =
        match Hashtbl.find_opt t.hists name with
        | Some acc -> acc
        | None ->
            let acc = { merged = Metrics.scratch_histogram (); sum = 0.; max = 0. } in
            Hashtbl.add t.hists name acc;
            acc
      in
      Metrics.merge_into ~into:acc.merged scratch;
      acc.sum <- acc.sum +. h.s_sum;
      acc.max <- Float.max acc.max h.s_max)
    scrape;
  t.sources <- t.sources + 1

let sources t = t.sources

let counter t name =
  match Hashtbl.find_opt t.counters (sanitize name) with Some r -> !r | None -> 0

let histogram t name =
  Hashtbl.find_opt t.hists (sanitize name)
  |> Option.map (fun acc ->
         let snap = Metrics.snapshot_hist acc.merged in
         (* quantiles are bucket-granular (estimated at reconstructed
            edges); clamp them to the exact scraped max like
            Metrics.quantile clamps to its own observed max *)
         let q v = Float.min v acc.max in
         {
           snap with
           Metrics.sum = acc.sum;
           max = acc.max;
           p50 = q snap.Metrics.p50;
           p95 = q snap.Metrics.p95;
           p99 = q snap.Metrics.p99;
         })
