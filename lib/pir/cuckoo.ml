type t = {
  db : Bucket_db.t;
  h0 : Keymap.t;
  h1 : Keymap.t;
  max_kicks : int;
  on_change : int -> unit;
  mutable count : int;
}

let probes_per_query = 2

let default_hash_key = String.sub (Lw_crypto.Sha256.digest "lw-pir-cuckoo-default") 0 16

let create ?(hash_key = default_hash_key) ?(max_kicks = 512) ?(on_change = fun _ -> ())
    ~domain_bits ~bucket_size () =
  let base = Keymap.create ~hash_key ~domain_bits in
  {
    db = Bucket_db.create ~domain_bits ~bucket_size;
    h0 = Keymap.derive base ~salt:0;
    h1 = Keymap.derive base ~salt:1;
    max_kicks;
    on_change;
    count = 0;
  }

let db t = t.db
let count t = t.count

let candidates t key = (Keymap.index_of_key t.h0 key, Keymap.index_of_key t.h1 key)

(* All bucket mutations funnel through these two so [on_change] sees every
   dirtied bucket exactly when it changes. *)
let set_bucket t i bytes =
  Bucket_db.set t.db i bytes;
  t.on_change i

let clear_bucket t i =
  Bucket_db.clear t.db i;
  t.on_change i

let slot_of t key =
  let i0, i1 = candidates t key in
  let check i = Record.decode_for_key ~key (Bucket_db.get t.db i) |> Option.map (fun v -> (i, v)) in
  match check i0 with Some r -> Some r | None -> if i1 = i0 then None else check i1

let find t key = Option.map snd (slot_of t key)
let bucket_empty t i = Option.is_none (Record.decode (Bucket_db.get t.db i))

let remove t key =
  match slot_of t key with
  | Some (i, _) ->
      clear_bucket t i;
      t.count <- t.count - 1;
      true
  | None -> false

let other_candidate t key current =
  let i0, i1 = candidates t key in
  if current = i0 then i1 else i0

let insert t ~key ~value =
  let bucket_size = Bucket_db.bucket_size t.db in
  if Record.overhead + String.length key + String.length value > bucket_size then Error `Too_large
  else begin
    (* One probe of the two candidate buckets yields both the occupied
       slot (if any) and freshness — the old code paid [find] and then
       [slot_of], hashing and decoding every key twice. *)
    let i0, i1 = candidates t key in
    let held i = Option.is_some (Record.decode_for_key ~key (Bucket_db.get t.db i)) in
    let slot = if held i0 then Some i0 else if i1 <> i0 && held i1 then Some i1 else None in
    match slot with
    | Some i ->
        set_bucket t i (Record.encode ~bucket_size ~key ~value);
        Ok ()
    | None ->
        (* Displacement chain, all or nothing: every bucket it writes is
           logged with the record it held (or none), and a chain that
           fails restores them all, so a rejected insert leaves the table
           as it found it. The pending record goes to [target]; a full
           slot evicts its occupant to that occupant's other candidate.
           An occupant whose two candidates coincide cannot move, so the
           pending record tries its own other candidate instead. *)
        let undo = ref [] in
        let write i old ~key ~value =
          undo := (i, old) :: !undo;
          set_bucket t i (Record.encode ~bucket_size ~key ~value)
        in
        let rec place key value target kicks =
          kicks <= t.max_kicks
          &&
          match Record.decode (Bucket_db.get t.db target) with
          | None ->
              write target None ~key ~value;
              true
          | Some (victim_key, victim_value) as old ->
              let alt = other_candidate t victim_key target in
              if alt <> target then begin
                write target old ~key ~value;
                place victim_key victim_value alt (kicks + 1)
              end
              else begin
                let other = other_candidate t key target in
                other <> target && place key value other (kicks + 1)
              end
        in
        let start = if bucket_empty t i0 then i0 else i1 in
        if place key value start 0 then begin
          t.count <- t.count + 1;
          Ok ()
        end
        else begin
          (* newest write first, so a bucket written twice ends at its
             original contents *)
          List.iter
            (fun (i, old) ->
              match old with
              | None -> clear_bucket t i
              | Some (key, value) -> set_bucket t i (Record.encode ~bucket_size ~key ~value))
            !undo;
          Error `Full
        end
  end

let load_factor t = float_of_int t.count /. float_of_int (Bucket_db.size t.db)
