(* Warm-restart persistence: tiny JSON manifest + raw data file, both
   written to a temp name and renamed into place so a crash mid-write
   can only ever lose the update, not corrupt the previous state. *)

module Json = Lw_json.Json

type t = {
  shard_id : int;
  domain_bits : int;
  bucket_size : int;
  epoch : int;
  advertised : int;
}

let manifest_path dir id = Filename.concat dir (Printf.sprintf "shard-%d.manifest.json" id)
let data_path dir id = Filename.concat dir (Printf.sprintf "shard-%d.data" id)

let to_json m =
  let num i = Json.Number (float_of_int i) in
  Json.Obj
    [
      ("shard_id", num m.shard_id);
      ("domain_bits", num m.domain_bits);
      ("bucket_size", num m.bucket_size);
      ("epoch", num m.epoch);
      ("advertised", num m.advertised);
    ]

let of_json j =
  let int k = Json.get_int (Json.member k j) in
  {
    shard_id = int "shard_id";
    domain_bits = int "domain_bits";
    bucket_size = int "bucket_size";
    epoch = int "epoch";
    advertised = int "advertised";
  }

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let save ~dir m ~data =
  let expect = (1 lsl m.domain_bits) * m.bucket_size in
  if String.length data <> expect then
    invalid_arg
      (Printf.sprintf "Manifest.save: data is %d bytes, geometry says %d"
         (String.length data) expect);
  (* data first: a crash between the two renames leaves a manifest that
     still describes the previous (also complete) data file or a data
     file one epoch ahead of its manifest — [load] rejects only size
     mismatches, and the epoch in the manifest is the one the shard will
     claim, so claiming one epoch older than the data holds is safe
     (catch-up re-sends a superset of what changed) *)
  write_atomic (data_path dir m.shard_id) data;
  write_atomic (manifest_path dir m.shard_id) (Json.to_string (to_json m))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~dir ~shard_id =
  match read_file (manifest_path dir shard_id) with
  | exception Sys_error _ -> None
  | raw -> (
      match Json.of_string_opt raw with
      | None -> None
      | Some j -> (
          match of_json j with
          | exception (Invalid_argument _ | Failure _) -> None
          | m -> (
              if m.shard_id <> shard_id then None
              else
                match read_file (data_path dir shard_id) with
                | exception Sys_error _ -> None
                | data ->
                    if String.length data = (1 lsl m.domain_bits) * m.bucket_size then
                      Some (m, data)
                    else None)))
