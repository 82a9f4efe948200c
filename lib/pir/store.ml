(* The keyword store now sits on the epoch-versioned engine: every
   insert/remove lands in a lazily-opened copy-on-write [Lw_store.Writer]
   batch, and [publish] seals the batch as the next epoch. Readers of the
   store's own API ([find], [insert]'s collision check) read through the
   pending batch so publishers see their own uncommitted writes; PIR
   servers never see the batch — they answer from sealed snapshots only. *)

type t = {
  engine : Lw_store.t;
  keymap : Keymap.t;
  mutable count : int;
  mutable pending : Lw_store.Writer.t option;
}

type insert_error = Collision of string | Too_large

let default_hash_key = String.sub (Lw_crypto.Sha256.digest "lw-pir-store-default") 0 16

let create ?(hash_key = default_hash_key) ~domain_bits ~bucket_size () =
  {
    engine = Lw_store.create ~hash_key ~domain_bits ~bucket_size ();
    keymap = Keymap.create ~hash_key ~domain_bits;
    count = 0;
    pending = None;
  }

let engine t = t.engine
let count t = t.count
let index_of t key = Keymap.index_of_key t.keymap key
let bucket_size t = Lw_store.bucket_size t.engine

let writer t =
  match t.pending with
  | Some w -> w
  | None ->
      let w = Lw_store.writer t.engine in
      t.pending <- Some w;
      w

(* Read through the uncommitted batch when there is one, else through the
   current epoch. *)
let read_bucket t i =
  match t.pending with
  | Some w -> Lw_store.Writer.get w i
  | None -> Lw_store.Snapshot.get (Lw_store.current t.engine) i

let publish t =
  match t.pending with
  | None -> Lw_store.current t.engine
  | Some w ->
      t.pending <- None;
      Lw_store.Writer.seal w

let insert t ~key ~value =
  let i = index_of t key in
  let fits = Record.overhead + String.length key + String.length value <= bucket_size t in
  if not fits then Error Too_large
  else begin
    match Record.decode (read_bucket t i) with
    | Some (existing, _) when not (String.equal existing key) -> Error (Collision existing)
    | (Some _ | None) as prior ->
        Lw_store.Writer.set (writer t) i (Record.encode ~bucket_size:(bucket_size t) ~key ~value);
        if Option.is_none prior then t.count <- t.count + 1;
        Ok ()
  end

let remove t key =
  let i = index_of t key in
  match Record.decode_for_key ~key (read_bucket t i) with
  | Some _ ->
      Lw_store.Writer.clear (writer t) i;
      t.count <- t.count - 1;
      true
  | None -> false

let find t key = Record.decode_for_key ~key (read_bucket t (index_of t key))
