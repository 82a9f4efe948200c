type t = {
  oram : Path_oram.t;
  directory : (string, int) Hashtbl.t; (* enclave-private: key -> block id *)
  mutable free_ids : int list;
  value_size : int;
  rng : Lw_crypto.Drbg.t;
}

let record_overhead = Lw_pir.Record.overhead

let create ?(seed = "enclave") ~capacity ~value_size () =
  if capacity < 1 then invalid_arg "Enclave.create: capacity must be positive";
  if value_size < 1 then invalid_arg "Enclave.create: value_size must be positive";
  let rng = Lw_crypto.Drbg.create ~seed in
  (* block must hold key (<= 255 bytes by convention) + value + framing *)
  let block_size = record_overhead + 255 + value_size in
  {
    oram = Path_oram.create ~capacity ~block_size:(Lw_util.Bitops.round_up block_size ~multiple:8) rng;
    directory = Hashtbl.create capacity;
    free_ids = List.init capacity (fun i -> i);
    value_size;
    rng;
  }

let capacity t = Path_oram.capacity t.oram
let observed_trace t = Path_oram.access_log t.oram
let clear_trace t = Path_oram.clear_access_log t.oram
let accesses_per_get t = Path_oram.tree_height t.oram + 1

let encode t ~key ~value =
  Lw_pir.Record.encode ~bucket_size:(Path_oram.block_size t.oram) ~key ~value

let put t ~key ~value =
  if String.length key = 0 || String.length key > 255 || String.length value > t.value_size then
    Error `Too_large
  else begin
    match Hashtbl.find_opt t.directory key with
    | Some id ->
        Path_oram.write t.oram id (encode t ~key ~value);
        Ok ()
    | None -> (
        match t.free_ids with
        | [] -> Error `Full
        | id :: rest ->
            t.free_ids <- rest;
            Hashtbl.replace t.directory key id;
            Path_oram.write t.oram id (encode t ~key ~value);
            Ok ())
  end

(* A miss still touches the ORAM once, on a uniformly random block, so the
   trace never reveals whether the key exists. *)
let dummy_access t =
  ignore (Path_oram.read t.oram (Lw_crypto.Drbg.uniform_int t.rng (capacity t)))

let get t key =
  match Hashtbl.find_opt t.directory key with
  | None ->
      dummy_access t;
      None
  | Some id -> (
      match Path_oram.read t.oram id with
      | None -> None
      | Some block -> Lw_pir.Record.decode_for_key ~key block)

let remove t key =
  match Hashtbl.find_opt t.directory key with
  | None ->
      dummy_access t;
      false
  | Some id ->
      Hashtbl.remove t.directory key;
      t.free_ids <- id :: t.free_ids;
      (* overwrite with an empty block; one access, like any other op *)
      Path_oram.write t.oram id "";
      true
