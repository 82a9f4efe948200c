type geometry = {
  code_blob_size : int;
  data_blob_size : int;
  fetches_per_page : int;
  code_domain_bits : int;
  data_domain_bits : int;
}

let default_geometry =
  {
    code_blob_size = 16 * 1024;
    data_blob_size = 1024;
    fetches_per_page = 5;
    code_domain_bits = 10;
    data_domain_bits = 12;
  }

type t = {
  name : string;
  seed : string;
  geometry : geometry;
  code_store : Lw_pir.Store.t;
  data_store : Lw_pir.Store.t;
  kw_store : Lw_pir.Kw_store.t;
      (* cuckoo-backed keyword index over the same paths as the data
         store: same geometry, separate hash key, sealed per epoch *)
  code_hash_key : string;
  data_hash_key : string;
  kw_hash_key : string;
  owners : (string, string) Hashtbl.t; (* domain -> publisher *)
  data_paths : (string, unit) Hashtbl.t;
  (* single-server PIR: one hint cache for the data store, shared by
     every server built over it, so the per-epoch hint is computed once
     and then served to any number of clients. Publishing warms it
     (seals it "alongside the epoch") once single serving is in use. *)
  spir_data_cache : Lw_pir.Spir.Hint_cache.t;
  mutable spir_serving : bool;
}

let derive_key seed label = String.sub (Lw_crypto.Sha256.digest (seed ^ "/" ^ label)) 0 16

let create ?(seed = "lightweb-universe") ~name geometry =
  if geometry.fetches_per_page < 1 then invalid_arg "Universe.create: fetches_per_page < 1";
  let code_hash_key = derive_key seed (name ^ "/code") in
  let data_hash_key = derive_key seed (name ^ "/data") in
  let kw_hash_key = derive_key seed (name ^ "/keyword") in
  {
    name;
    seed;
    geometry;
    code_store =
      Lw_pir.Store.create ~hash_key:code_hash_key ~domain_bits:geometry.code_domain_bits
        ~bucket_size:geometry.code_blob_size ();
    data_store =
      Lw_pir.Store.create ~hash_key:data_hash_key ~domain_bits:geometry.data_domain_bits
        ~bucket_size:geometry.data_blob_size ();
    kw_store =
      Lw_pir.Kw_store.create ~hash_key:kw_hash_key ~domain_bits:geometry.data_domain_bits
        ~bucket_size:geometry.data_blob_size ();
    code_hash_key;
    data_hash_key;
    kw_hash_key;
    owners = Hashtbl.create 64;
    data_paths = Hashtbl.create 1024;
    spir_data_cache = Lw_pir.Spir.Hint_cache.create Lw_pir.Spir.default_params;
    spir_serving = false;
  }

let name t = t.name
let geometry t = t.geometry
let seed t = t.seed
let owner_of t domain = Hashtbl.find_opt t.owners domain

let domains t =
  Hashtbl.fold (fun d p acc -> (d, p) :: acc) t.owners []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let data_paths t =
  Hashtbl.fold (fun p () acc -> p :: acc) t.data_paths [] |> List.sort String.compare

let claim_domain t ~publisher ~domain =
  if not (Lw_path.valid_domain domain) then Error (Printf.sprintf "invalid domain %S" domain)
  else begin
    match Hashtbl.find_opt t.owners domain with
    | Some existing when not (String.equal existing publisher) ->
        Error (Printf.sprintf "domain %s is owned by %s" domain existing)
    | Some _ -> Ok ()
    | None ->
        Hashtbl.replace t.owners domain publisher;
        Ok ()
  end

let check_owner t ~publisher ~domain =
  match Hashtbl.find_opt t.owners domain with
  | Some owner when String.equal owner publisher -> Ok ()
  | Some owner -> Error (Printf.sprintf "domain %s is owned by %s" domain owner)
  | None -> Error (Printf.sprintf "domain %s is unclaimed; claim it first" domain)

let push_code t ~publisher ~domain ~source =
  match check_owner t ~publisher ~domain with
  | Error _ as e -> e
  | Ok () -> (
      match Lightscript.parse source with
      | Error e -> Error (Format.asprintf "code does not parse: %a" Lightscript.pp_error e)
      | Ok program ->
          if not (Lightscript.has_function program "plan") then Error "code must define fn plan"
          else if not (Lightscript.has_function program "render") then
            Error "code must define fn render"
          else begin
            match Lw_pir.Store.insert t.code_store ~key:domain ~value:source with
            | Ok () -> Ok ()
            | Error Lw_pir.Store.Too_large ->
                Error
                  (Printf.sprintf "code blob of %d bytes exceeds universe code size %d"
                     (String.length source) t.geometry.code_blob_size)
            | Error (Lw_pir.Store.Collision other) ->
                Error (Printf.sprintf "code slot collides with domain %s" other)
          end)

let push_data t ~publisher ~path ~value =
  match Lw_path.parse path with
  | Error e -> Error e
  | Ok p -> (
      match check_owner t ~publisher ~domain:(Lw_path.domain p) with
      | Error _ as e -> e
      | Ok () -> (
          let text = Lw_json.Json.to_string value in
          match Lw_pir.Store.insert t.data_store ~key:path ~value:text with
          | Ok () -> (
              (* mirror the page into the keyword index under its final
                 (post-rename) path, so keyword GET and path GET resolve
                 to byte-identical values *)
              match Lw_pir.Kw_store.insert t.kw_store ~key:path ~value:text with
              | Ok () ->
                  Hashtbl.replace t.data_paths path ();
                  Ok ()
              | Error `Full ->
                  (* fail closed: undo the data-index write, so nothing is
                     published that the keyword verb cannot serve. Both
                     indexes hold the same paths and an overwrite never
                     fails, so the path is new to the data index too. *)
                  ignore (Lw_pir.Store.remove t.data_store path);
                  Error
                    (Printf.sprintf
                       "path %s finds no place in the keyword index; pick another name" path)
              | Error `Too_large ->
                  (* unreachable: the keyword store shares the data
                     store's bucket geometry, so anything the data insert
                     accepted fits here too *)
                  Error (Printf.sprintf "keyword blob for %s exceeds universe data size" path))
          | Error Lw_pir.Store.Too_large ->
              Error
                (Printf.sprintf "data blob of %d bytes exceeds universe data size %d"
                   (String.length text) t.geometry.data_blob_size)
          | Error (Lw_pir.Store.Collision other) ->
              Error
                (Printf.sprintf
                   "path %s hash-collides with existing path %s; pick another name" path other)))

let remove_data t ~publisher ~path =
  match Lw_path.parse path with
  | Error e -> Error e
  | Ok p -> (
      match check_owner t ~publisher ~domain:(Lw_path.domain p) with
      | Error _ as e -> e
      | Ok () ->
          Hashtbl.remove t.data_paths path;
          ignore (Lw_pir.Kw_store.remove t.kw_store path);
          Ok (Lw_pir.Store.remove t.data_store path))

let page_count t = Lw_pir.Store.count t.data_store
let code_count t = Lw_pir.Store.count t.code_store
let code_source t domain = Lw_pir.Store.find t.code_store domain
let data_value t path = Lw_pir.Store.find t.data_store path

(* Seal whatever the publishers have pushed so far, so both logical
   servers of a pair serve from the same published epoch; returns the
   (code, data) epochs now current. *)
let publish_updates t =
  ignore (Lw_pir.Kw_store.publish t.kw_store);
  let epochs =
    ( Lw_store.Snapshot.epoch (Lw_pir.Store.publish t.code_store),
      Lw_store.Snapshot.epoch (Lw_pir.Store.publish t.data_store) )
  in
  (* once a single-server deployment exists, every new epoch's hint is
     sealed with it, so no client ever pays the hint computation *)
  if t.spir_serving then
    Lw_pir.Spir.Hint_cache.warm t.spir_data_cache (Lw_pir.Store.engine t.data_store);
  epochs

let keyword_epoch t = Lw_store.current_epoch (Lw_pir.Kw_store.engine t.kw_store)
let keyword_store t = t.kw_store

let pir_server t ~which store hash_key blob_size =
  (* publish pending mutations first: a server must never see the
     uncommitted batch, only sealed epochs *)
  ignore (Lw_pir.Store.publish store);
  Zltp_server.create
    ~server_id:(Printf.sprintf "%s/%s" t.name which)
    ~hash_key ~blob_size
    (Zltp_backend.versioned (Lw_pir.Store.engine store))

let code_servers t =
  ( pir_server t ~which:"code-0" t.code_store t.code_hash_key t.geometry.code_blob_size,
    pir_server t ~which:"code-1" t.code_store t.code_hash_key t.geometry.code_blob_size )

let data_servers t =
  ( pir_server t ~which:"data-0" t.data_store t.data_hash_key t.geometry.data_blob_size,
    pir_server t ~which:"data-1" t.data_store t.data_hash_key t.geometry.data_blob_size )

let keyword_servers t =
  (* seal pending keyword mutations first, like pir_server: servers only
     ever see sealed epochs *)
  ignore (Lw_pir.Kw_store.publish t.kw_store);
  let mk which =
    Zltp_server.create
      ~server_id:(Printf.sprintf "%s/%s" t.name which)
      ~hash_key:t.kw_hash_key ~blob_size:t.geometry.data_blob_size
      (Zltp_backend.versioned (Lw_pir.Kw_store.engine t.kw_store))
  in
  (mk "keyword-0", mk "keyword-1")

let sharded_data_servers t ~shard_bits =
  ignore (Lw_pir.Store.publish t.data_store);
  let mk which =
    Zltp_server.create
      ~server_id:(Printf.sprintf "%s/%s" t.name which)
      ~hash_key:t.data_hash_key ~blob_size:t.geometry.data_blob_size
      (Zltp_backend.sharded
         (Zltp_frontend.of_store (Lw_pir.Store.engine t.data_store) ~shard_bits))
  in
  (mk "data-sharded-0", mk "data-sharded-1")

let enclave_data_server t =
  let capacity = max 64 (2 * page_count t) in
  let enclave =
    Lw_oram.Enclave.create
      ~seed:(t.name ^ "/enclave")
      ~capacity ~value_size:t.geometry.data_blob_size ()
  in
  Hashtbl.iter
    (fun path () ->
      match data_value t path with
      | Some v -> (
          match Lw_oram.Enclave.put enclave ~key:path ~value:v with
          | Ok () -> ()
          | Error _ -> failwith "enclave_data_server: capacity exhausted")
      | None -> ())
    t.data_paths;
  Zltp_server.create
    ~server_id:(t.name ^ "/enclave")
    ~hash_key:t.data_hash_key ~blob_size:t.geometry.data_blob_size
    (Zltp_backend.enclave enclave)

(* The third deployment model: ONE server, no non-collusion partner and
   no enclave — privacy from LWE alone. The store is the same sealed
   epoch engine the two-server pair scans; only the verb family differs. *)
let single_data_server t =
  ignore (Lw_pir.Store.publish t.data_store);
  t.spir_serving <- true;
  let engine = Lw_pir.Store.engine t.data_store in
  Lw_pir.Spir.Hint_cache.warm t.spir_data_cache engine;
  Zltp_server.create
    ~server_id:(t.name ^ "/data-single")
    ~hash_key:t.data_hash_key ~blob_size:t.geometry.data_blob_size
    (Zltp_backend.single ~cache:t.spir_data_cache engine)

let stats t =
  [
    ("domains", Hashtbl.length t.owners);
    ("code blobs", code_count t);
    ("data blobs", page_count t);
    ("keyword entries", Lw_pir.Kw_store.count t.kw_store);
    ("code blob size", t.geometry.code_blob_size);
    ("data blob size", t.geometry.data_blob_size);
    ("fetches per page", t.geometry.fetches_per_page);
    ("data domain", 1 lsl t.geometry.data_domain_bits);
  ]
