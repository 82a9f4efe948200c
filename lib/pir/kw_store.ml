(* Cuckoo-hashed keyword store on the epoch-versioned engine: two
   candidate buckets per key, displacement on insert. Every bucket write
   of a displacement chain lands in a lazily opened copy-on-write
   [Lw_store.Writer] batch, exactly as [Store]'s inserts do, and
   [publish] seals the batch as the next epoch. Reads go through the
   pending batch so the chain sees its own writes; PIR servers answer
   from sealed snapshots only, so a keyword query never observes a
   half-finished eviction chain. *)

type t = {
  engine : Lw_store.t;
  h0 : Keymap.t;
  h1 : Keymap.t;
  max_kicks : int;
  mutable count : int;
  mutable pending : Lw_store.Writer.t option;
}

let default_hash_key = String.sub (Lw_crypto.Sha256.digest "lw-pir-kw-store-default") 0 16

let create ?(hash_key = default_hash_key) ?(max_kicks = 512) ~domain_bits ~bucket_size () =
  let base = Keymap.create ~hash_key ~domain_bits in
  {
    engine = Lw_store.create ~hash_key ~domain_bits ~bucket_size ();
    h0 = Keymap.derive base ~salt:0;
    h1 = Keymap.derive base ~salt:1;
    max_kicks;
    count = 0;
    pending = None;
  }

let engine t = t.engine
let count t = t.count
let stash_size _ = 0
let bucket_size t = Lw_store.bucket_size t.engine
let load_factor t = float_of_int t.count /. float_of_int (Lw_store.size t.engine)
let pending_mutations t = match t.pending with None -> 0 | Some w -> Lw_store.Writer.mutations w
let candidates t key = (Keymap.index_of_key t.h0 key, Keymap.index_of_key t.h1 key)

let writer t =
  match t.pending with
  | Some w -> w
  | None ->
      let w = Lw_store.writer t.engine in
      t.pending <- Some w;
      w

let read_bucket t i =
  match t.pending with
  | Some w -> Lw_store.Writer.get w i
  | None -> Lw_store.Snapshot.get (Lw_store.current t.engine) i

let set_bucket t i bytes = Lw_store.Writer.set (writer t) i bytes
let clear_bucket t i = Lw_store.Writer.clear (writer t) i

let publish t =
  match t.pending with
  | None -> Lw_store.current t.engine
  | Some w ->
      t.pending <- None;
      Lw_store.Writer.seal w

let snapshot t = publish t

let slot_of t key =
  let i0, i1 = candidates t key in
  let check i = Record.decode_for_key ~key (read_bucket t i) |> Option.map (fun v -> (i, v)) in
  match check i0 with Some r -> Some r | None -> if i1 = i0 then None else check i1

let find t key = Option.map snd (slot_of t key)
let bucket_empty t i = Option.is_none (Record.decode (read_bucket t i))

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
  let bucket_size = bucket_size t in
  if Record.overhead + String.length key + String.length value > bucket_size then Error `Too_large
  else begin
    (* One probe of the two candidate buckets yields both the occupied
       slot (if any) and freshness. *)
    let i0, i1 = candidates t key in
    let held i = Option.is_some (Record.decode_for_key ~key (read_bucket t i)) in
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
          match Record.decode (read_bucket t target) with
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
