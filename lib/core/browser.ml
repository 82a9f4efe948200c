module Json = Lw_json.Json

type event = Code_fetch | Data_fetch

type page = {
  path : string;
  text : string;
  code_cache_hit : bool;
  planned : int;
  fetched : int;
}

type t = {
  code : Zltp_client.t;
  data : Zltp_client.t;
  fetches_per_page : int;
  gas : int;
  rng : Lw_crypto.Drbg.t;
  code_cache : (string, Lightscript.program) Hashtbl.t;
  storage : (string, (string, Json.t) Hashtbl.t) Hashtbl.t;
  subscriptions : (string, Access_control.subscription) Hashtbl.t;
  mutable events : event list; (* reversed *)
  mutable pages : int;
}

let create ?(fetches_per_page = 5) ?(gas = 200_000) ?rng ~code ~data () =
  if fetches_per_page < 1 then invalid_arg "Browser.create: fetches_per_page < 1";
  let rng = match rng with Some r -> r | None -> Lw_crypto.Drbg.system () in
  {
    code;
    data;
    fetches_per_page;
    gas;
    rng;
    code_cache = Hashtbl.create 16;
    storage = Hashtbl.create 16;
    subscriptions = Hashtbl.create 4;
    events = [];
    pages = 0;
  }

let events t = List.rev t.events
let clear_events t = t.events <- []
let pages_visited t = t.pages
let evict_code t domain = Hashtbl.remove t.code_cache domain
let add_subscription t ~domain sub = Hashtbl.replace t.subscriptions domain sub

let domain_storage t domain =
  match Hashtbl.find_opt t.storage domain with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.storage domain tbl;
      tbl

let storage_get t ~domain key = Hashtbl.find_opt (domain_storage t domain) key
let storage_set t ~domain key v = Hashtbl.replace (domain_storage t domain) key v

let state_object t domain =
  Json.Obj (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (domain_storage t domain) [])

let apply_effects t domain effects =
  List.iter (fun (Lightscript.Store (k, v)) -> storage_set t ~domain k v) effects

let ( let* ) = Result.bind

let fetch_program t domain =
  match Hashtbl.find_opt t.code_cache domain with
  | Some program -> Ok (program, true)
  | None -> (
      let* source_opt = Zltp_client.get t.code domain in
      t.events <- Code_fetch :: t.events;
      match source_opt with
      | None -> Error (Printf.sprintf "no lightweb site at domain %s" domain)
      | Some source -> (
          match Lightscript.parse source with
          | Error e -> Error (Format.asprintf "code blob does not parse: %a" Lightscript.pp_error e)
          | Ok program ->
              Hashtbl.replace t.code_cache domain program;
              Ok (program, false)))

(* The plan must name paths inside the code's own domain: a malicious code
   blob cannot use the client to probe other publishers' content. *)
let validate_plan domain keys =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Json.String key :: rest -> (
        match Lw_path.parse key with
        | Ok p when Lw_path.in_domain p domain -> go (key :: acc) rest
        | Ok _ -> Error (Printf.sprintf "plan escapes its domain: %s" key)
        | Error e -> Error (Printf.sprintf "plan produced invalid path %S: %s" key e))
    | v :: _ -> Error (Printf.sprintf "plan produced a non-string entry (%s)" (Json.to_string v))
  in
  go [] keys

let dummy_key t domain =
  Printf.sprintf "%s/__pad__/%s" domain (Lw_util.Hex.encode (Lw_crypto.Drbg.generate t.rng 8))

let unseal_if_subscribed t domain ~path v =
  if not (Access_control.is_sealed v) then v
  else
    match Hashtbl.find_opt t.subscriptions domain with
    | None -> v (* script renders the sealed envelope, e.g. a subscribe prompt *)
    | Some sub -> ( match Access_control.open_ sub ~path v with Ok pt -> pt | Error _ -> v)

(* A slot's value as [render] sees it: a missing or non-JSON record is
   [null], a sealed one is opened when the user holds a subscription. *)
let decode_slot t domain key = function
  | None -> Json.Null
  | Some text -> (
      match Json.of_string_opt text with
      | None -> Json.Null
      | Some v -> unseal_if_subscribed t domain ~path:key v)

let browse t path_str =
  let* path = Lw_path.parse path_str in
  let domain = Lw_path.domain path in
  let* program, code_cache_hit = fetch_program t domain in
  let state = state_object t domain in
  let* plan_result =
    match
      Lightscript.run ~gas:t.gas program ~fn:"plan"
        ~args:[ Json.String (Lw_path.rest path); state ]
    with
    | Ok (Json.List keys, effects) ->
        apply_effects t domain effects;
        Ok keys
    | Ok (v, _) -> Error (Printf.sprintf "plan must return a list, got %s" (Json.to_string v))
    | Error e -> Error (Printf.sprintf "plan failed: %s" e)
  in
  let* planned_keys = validate_plan domain plan_result in
  let planned = List.length planned_keys in
  (* fixed fetch count: truncate long plans, pad short ones with dummies *)
  let k = t.fetches_per_page in
  let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest in
  let real = take k planned_keys in
  let dummies = List.init (k - List.length real) (fun _ -> dummy_key t domain) in
  (* all k slots are one batch: one exchange per data server in Pir2, and
     one epoch for the page's data in both PIR modes *)
  let* values = Zltp_client.get_batch t.data (real @ dummies) in
  t.events <- List.init k (fun _ -> Data_fetch) @ t.events;
  (* only the genuinely planned values are handed to render *)
  let real_data = List.map2 (decode_slot t domain) real (take (List.length real) values) in
  let state = state_object t domain in
  let* text =
    match
      Lightscript.run ~gas:t.gas program ~fn:"render"
        ~args:[ Json.String (Lw_path.rest path); state; Json.List real_data ]
    with
    | Ok (Json.String text, effects) ->
        apply_effects t domain effects;
        Ok text
    | Ok (v, _) -> Error (Printf.sprintf "render must return a string, got %s" (Json.to_string v))
    | Error e -> Error (Printf.sprintf "render failed: %s" e)
  in
  t.pages <- t.pages + 1;
  Ok { path = path_str; text; code_cache_hit; planned; fetched = k }
