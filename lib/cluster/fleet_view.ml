(* Fold per-process metric snapshots into fleet totals. Bucketing is
   deterministic, so adding each process's bucket counts by index gives
   exactly the histogram one process observing every sample would hold. *)

module Metrics = Lw_obs.Metrics

type t = {
  counters : (string, int) Hashtbl.t;
  hists : (string, Metrics.histogram) Hashtbl.t;
  mutable sources : int;
}

let create () = { counters = Hashtbl.create 32; hists = Hashtbl.create 16; sources = 0 }

let add t items =
  List.iter
    (function
      | Metrics.Counter (name, v) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
          Hashtbl.replace t.counters name (prev + v)
      | Metrics.Gauge _ -> ()
      | Metrics.Histogram (name, (h : Metrics.hist_snapshot)) ->
          let acc =
            match Hashtbl.find_opt t.hists name with
            | Some acc -> acc
            | None ->
                let acc = Metrics.scratch_histogram () in
                Hashtbl.add t.hists name acc;
                acc
          in
          Metrics.merge_buckets ~into:acc ~count:h.count ~sum:h.sum ~max:h.max
            h.nonzero_buckets)
    items;
  t.sources <- t.sources + 1

let sources t = t.sources
let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)
let histogram t name = Option.map Metrics.snapshot_hist (Hashtbl.find_opt t.hists name)
