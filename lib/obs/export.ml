(* A Prometheus-style text exposition of Metrics.snapshot, for humans
   and text scrapers. Programs read Metrics.snapshot itself. *)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. We map dots (and
   anything else outside the charset) to underscores. *)
let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch
      | _ -> '_')
    name

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_prometheus () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun item ->
      match item with
      | Metrics.Counter (name, v) ->
          let n = sanitize name in
          line "# TYPE %s counter" n;
          line "%s %d" n v
      | Metrics.Gauge (name, v) ->
          let n = sanitize name in
          line "# TYPE %s gauge" n;
          line "%s %s" n (fmt_float v)
      | Metrics.Histogram (name, h) ->
          let n = sanitize name in
          line "# TYPE %s summary" n;
          line "%s{quantile=\"0.5\"} %s" n (fmt_float h.p50);
          line "%s{quantile=\"0.95\"} %s" n (fmt_float h.p95);
          line "%s{quantile=\"0.99\"} %s" n (fmt_float h.p99);
          line "%s_max %s" n (fmt_float h.max);
          line "%s_sum %s" n (fmt_float h.sum);
          line "%s_count %d" n h.count)
    (Metrics.snapshot ());
  Buffer.contents buf
