(* Control-plane codec: JSON over the shared Frame transport. Bucket
   data travels hex-encoded; a scrape reply carries the metrics snapshot
   as data; everything else is small scalars. The control plane moves
   publisher churn, not query traffic, so the 2x hex overhead buys
   printable wire captures at no cost that matters. *)

module Json = Lw_json.Json
module Metrics = Lw_obs.Metrics

type range = { base : int; count : int; data : string }

type msg =
  | Register of {
      shard_id : int;
      pid : int;
      zltp_port : int;
      epoch : int;
      advertised : int;
    }
  | Ack of { epoch : int }
  | Ctl_err of { message : string }
  | Scrape_reply of { metrics : Metrics.snapshot_item list }
  | Refresh of { base_epoch : int; target_epoch : int; ranges : range list }
  | Activate of { epoch : int }
  | Scrape
  | Quit

let num i = Json.Number (float_of_int i)

let json_of_range r =
  Json.Obj
    [
      ("base", num r.base);
      ("count", num r.count);
      ("data", Json.String (Lw_util.Hex.encode r.data));
    ]

(* One snapshot item. A histogram travels as its totals and its nonzero
   buckets keyed by index (the top bucket's upper edge is +inf, which
   JSON cannot write); the receiver recomputes its quantiles. *)
let json_of_item item =
  let fields kind name rest =
    Json.Obj (("kind", Json.String kind) :: ("name", Json.String name) :: rest)
  in
  match item with
  | Metrics.Counter (name, v) -> fields "counter" name [ ("value", num v) ]
  | Metrics.Gauge (name, v) -> fields "gauge" name [ ("value", Json.Number v) ]
  | Metrics.Histogram (name, h) ->
      fields "histogram" name
        [
          ("count", num h.count);
          ("sum", Json.Number h.sum);
          ("max", Json.Number h.max);
          ( "buckets",
            Json.List (List.map (fun (i, c) -> Json.List [ num i; num c ]) h.nonzero_buckets) );
        ]

let item_of_json j =
  let name = Json.get_string (Json.member "name" j) in
  let int k = Json.get_int (Json.member k j) in
  let float k =
    match Json.member k j with Json.Number f -> f | _ -> failwith (k ^ " is not a number")
  in
  let bucket = function
    | Json.List [ i; c ] -> (Json.get_int i, Json.get_int c)
    | _ -> failwith "bucket is not an [index, count] pair"
  in
  match Json.get_string (Json.member "kind" j) with
  | "counter" -> Metrics.Counter (name, int "value")
  | "gauge" -> Metrics.Gauge (name, float "value")
  | "histogram" ->
      let h = Metrics.scratch_histogram () in
      Metrics.merge_buckets ~into:h ~count:(int "count") ~sum:(float "sum") ~max:(float "max")
        (List.map bucket (Json.get_list (Json.member "buckets" j)));
      Metrics.Histogram (name, Metrics.snapshot_hist h)
  | kind -> failwith ("unknown metric kind: " ^ kind)

let to_json = function
  | Register { shard_id; pid; zltp_port; epoch; advertised } ->
      Json.Obj
        [
          ("t", Json.String "register");
          ("shard_id", num shard_id);
          ("pid", num pid);
          ("zltp_port", num zltp_port);
          ("epoch", num epoch);
          ("advertised", num advertised);
        ]
  | Ack { epoch } -> Json.Obj [ ("t", Json.String "ack"); ("epoch", num epoch) ]
  | Ctl_err { message } ->
      Json.Obj [ ("t", Json.String "err"); ("message", Json.String message) ]
  | Scrape_reply { metrics } ->
      Json.Obj
        [ ("t", Json.String "scrape_reply"); ("metrics", Json.List (List.map json_of_item metrics)) ]
  | Refresh { base_epoch; target_epoch; ranges } ->
      Json.Obj
        [
          ("t", Json.String "refresh");
          ("base_epoch", num base_epoch);
          ("target_epoch", num target_epoch);
          ("ranges", Json.List (List.map json_of_range ranges));
        ]
  | Activate { epoch } -> Json.Obj [ ("t", Json.String "activate"); ("epoch", num epoch) ]
  | Scrape -> Json.Obj [ ("t", Json.String "scrape") ]
  | Quit -> Json.Obj [ ("t", Json.String "quit") ]

let range_of_json j =
  let data_hex = Json.get_string (Json.member "data" j) in
  match Lw_util.Hex.decode_opt data_hex with
  | None -> failwith "range data is not hex"
  | Some data ->
      let base = Json.get_int (Json.member "base" j) in
      let count = Json.get_int (Json.member "count" j) in
      if base < 0 || count < 0 then failwith "negative range bounds";
      { base; count; data }

let of_json j =
  let int k = Json.get_int (Json.member k j) in
  match Json.get_string (Json.member "t" j) with
  | "register" ->
      Register
        {
          shard_id = int "shard_id";
          pid = int "pid";
          zltp_port = int "zltp_port";
          epoch = int "epoch";
          advertised = int "advertised";
        }
  | "ack" -> Ack { epoch = int "epoch" }
  | "err" -> Ctl_err { message = Json.get_string (Json.member "message" j) }
  | "scrape_reply" ->
      Scrape_reply { metrics = List.map item_of_json (Json.get_list (Json.member "metrics" j)) }
  | "refresh" ->
      Refresh
        {
          base_epoch = int "base_epoch";
          target_epoch = int "target_epoch";
          ranges = List.map range_of_json (Json.get_list (Json.member "ranges" j));
        }
  | "activate" -> Activate { epoch = int "epoch" }
  | "scrape" -> Scrape
  | "quit" -> Quit
  | tag -> failwith ("unknown control message: " ^ tag)

let encode m = Json.to_string (to_json m)

let decode s =
  match Json.of_string s with
  | exception Json.Parse_error e -> Error ("control frame is not JSON: " ^ e)
  | j -> (
      match of_json j with
      | m -> Ok m
      | exception (Failure e | Invalid_argument e) -> Error ("bad control frame: " ^ e))

let send ep m = ep.Lw_net.Endpoint.send (encode m)
let recv ep = decode (ep.Lw_net.Endpoint.recv ())
