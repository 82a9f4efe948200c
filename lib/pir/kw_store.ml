(* Cuckoo-backed keyword store on the epoch-versioned engine. The live
   [Cuckoo.t] is the publisher's working table (displacement chains mutate
   buckets freely); every bucket it dirties is recorded via the cuckoo's
   [on_change] hook, and [publish] copies exactly that dirty set through a
   copy-on-write [Lw_store.Writer] batch and seals it as the next epoch.
   PIR servers answer from sealed snapshots only, so a keyword query never
   observes a half-finished eviction chain. *)

type t = {
  engine : Lw_store.t;
  table : Cuckoo.t;
  dirty : (int, unit) Hashtbl.t;
}

let default_hash_key = String.sub (Lw_crypto.Sha256.digest "lw-pir-kw-store-default") 0 16

let create ?(hash_key = default_hash_key) ?max_kicks ~domain_bits ~bucket_size () =
  let dirty = Hashtbl.create 64 in
  let table =
    Cuckoo.create ~hash_key ?max_kicks
      ~on_change:(fun i -> Hashtbl.replace dirty i ())
      ~domain_bits ~bucket_size ()
  in
  { engine = Lw_store.create ~hash_key ~domain_bits ~bucket_size (); table; dirty }

let engine t = t.engine
let table t = t.table
let count t = Cuckoo.count t.table
let stash_size _ = 0
let load_factor t = Cuckoo.load_factor t.table
let candidates t key = Cuckoo.candidates t.table key
let bucket_size t = Lw_store.bucket_size t.engine
let pending_mutations t = Hashtbl.length t.dirty

let insert t ~key ~value = Cuckoo.insert t.table ~key ~value
let remove t key = Cuckoo.remove t.table key
let find t key = Cuckoo.find t.table key

let publish t =
  if Hashtbl.length t.dirty = 0 then Lw_store.current t.engine
  else begin
    let w = Lw_store.writer t.engine in
    let db = Cuckoo.db t.table in
    Hashtbl.iter (fun i () -> Lw_store.Writer.set w i (Bucket_db.get db i)) t.dirty;
    Hashtbl.reset t.dirty;
    Lw_store.Writer.seal w
  end

let snapshot t = publish t
