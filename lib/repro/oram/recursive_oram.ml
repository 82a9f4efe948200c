(* Positions are packed [pack] per map block, each as a 4-byte big-endian
   word storing (leaf + 1), so an all-zero (absent/padded) block decodes
   every slot as "no position yet" (-1). *)

module Path_oram = Lw_oram.Path_oram

type t = {
  data : Path_oram.t;
  maps : Path_oram.t list; (* innermost (largest) first *)
  pack : int;
  top_entries : int;
}

let slot_get block slot =
  let v = Int32.to_int (Bytes.get_int32_be block (4 * slot)) in
  v - 1

let slot_set block slot leaf = Bytes.set_int32_be block (4 * slot) (Int32.of_int (leaf + 1))

(* A position-map provider for [n] entries: a private array when small
   enough, otherwise an ORAM of packed blocks whose own map recurses. *)
let rec make_posmap ~pack ~threshold ~rng n =
  if n <= threshold then (Path_oram.array_position_map n, [], n)
  else begin
    let blocks = Lw_util.Bitops.ceil_div n pack in
    let inner, deeper, top_entries = make_posmap ~pack ~threshold ~rng blocks in
    let oram =
      Path_oram.create_with_position_map ~capacity:blocks ~block_size:(4 * pack) inner rng
    in
    let get_and_set i v =
      let old = ref (-1) in
      Path_oram.update oram (i / pack) (fun cur ->
          let block =
            match cur with
            | Some s -> Bytes.of_string s
            | None -> Bytes.make (4 * pack) '\x00'
          in
          old := slot_get block (i mod pack);
          slot_set block (i mod pack) v;
          Bytes.to_string block);
      !old
    in
    ({ Path_oram.get_and_set }, oram :: deeper, top_entries)
  end

let create ?(pack = 4) ?(top_threshold = 64) ~capacity ~block_size rng =
  if pack < 2 then invalid_arg "Recursive_oram.create: pack must be >= 2";
  if top_threshold < 1 then invalid_arg "Recursive_oram.create: top_threshold must be positive";
  let posmap, maps, top_entries = make_posmap ~pack ~threshold:top_threshold ~rng capacity in
  let data = Path_oram.create_with_position_map ~capacity ~block_size posmap rng in
  { data; maps; pack; top_entries }

let levels t = 1 + List.length t.maps
let write t id data = Path_oram.write t.data id data
let read t id = Path_oram.read t.data id
let paths_per_access t = levels t

let access_log t =
  Path_oram.access_log t.data @ List.concat_map Path_oram.access_log t.maps

let clear_access_log t =
  Path_oram.clear_access_log t.data;
  List.iter Path_oram.clear_access_log t.maps

let total_stash t =
  Path_oram.stash_size t.data
  + List.fold_left (fun acc m -> acc + Path_oram.stash_size m) 0 t.maps
