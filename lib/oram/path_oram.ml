(* Tree layout: heap order, bucket 0 is the root; leaf l (0-based) lives at
   node [2^height - 1 + l]. A "path" is the node set from root to a leaf.

   Untrusted memory = [tree]. Private (enclave) memory = the position map,
   [stash], and the RNG. [leaf_log] records what untrusted memory
   observes.

   Blocks carry their assigned leaf with them (in the stash and in tree
   buckets), so eviction never needs to consult the position map: the map
   is read exactly once per access, which is what lets [Recursive_oram]
   back it with another ORAM at one extra path per level. A block's leaf
   only changes while it sits in the stash of an access that targets it,
   so the carried copy can never go stale. *)

type block = { id : int; leaf : int; data : Bytes.t }

type position_map = { get_and_set : int -> int -> int }

let array_position_map n =
  let a = Array.make n (-1) in
  {
    get_and_set =
      (fun i v ->
        let old = a.(i) in
        a.(i) <- v;
        old);
  }

type stash_entry = { mutable s_leaf : int; s_data : Bytes.t }

type t = {
  capacity : int;
  block_size : int;
  bucket_capacity : int;
  height : int; (* root level 0 .. leaf level height *)
  leaves : int;
  tree : block list array; (* per bucket, at most bucket_capacity blocks *)
  posmap : position_map;
  stash : (int, stash_entry) Hashtbl.t;
  rng : Lw_crypto.Drbg.t;
  mutable leaf_log : int list; (* reversed *)
}

let create_with_position_map ?(bucket_capacity = 4) ~capacity ~block_size posmap rng =
  if capacity < 1 then invalid_arg "Path_oram.create: capacity must be positive";
  if block_size < 1 then invalid_arg "Path_oram.create: block_size must be positive";
  if bucket_capacity < 2 then invalid_arg "Path_oram.create: bucket_capacity too small";
  let height = Lw_util.Bitops.log2_ceil (max capacity 2) in
  let leaves = 1 lsl height in
  {
    capacity;
    block_size;
    bucket_capacity;
    height;
    leaves;
    tree = Array.make ((2 * leaves) - 1) [];
    posmap;
    stash = Hashtbl.create 16;
    rng;
    leaf_log = [];
  }

let create ?bucket_capacity ~capacity ~block_size rng =
  create_with_position_map ?bucket_capacity ~capacity ~block_size (array_position_map capacity)
    rng

let capacity t = t.capacity
let block_size t = t.block_size
let tree_height t = t.height
let bucket_count t = Array.length t.tree
let stash_size t = Hashtbl.length t.stash
let access_log t = List.rev t.leaf_log
let clear_access_log t = t.leaf_log <- []

(* node index of leaf [leaf]'s ancestor at [level] (root = level 0) *)
let node_at t ~leaf ~level =
  let path_bits = leaf lsr (t.height - level) in
  (1 lsl level) - 1 + path_bits

let random_leaf t = Lw_crypto.Drbg.uniform_int t.rng t.leaves

let check_id t id =
  if id < 0 || id >= t.capacity then invalid_arg "Path_oram: block id out of range"

(* One oblivious access: remap, read path into stash, mutate, evict.
   [mutate] maps the current contents (None if absent) to the contents to
   store; returning None leaves the block as it was. *)
let access t id ~mutate =
  check_id t id;
  let new_leaf = random_leaf t in
  let prior = t.posmap.get_and_set id new_leaf in
  let old_leaf = if prior >= 0 then prior else random_leaf t in
  t.leaf_log <- old_leaf :: t.leaf_log;
  (* read the whole path into the stash *)
  for level = 0 to t.height do
    let node = node_at t ~leaf:old_leaf ~level in
    List.iter
      (fun b -> Hashtbl.replace t.stash b.id { s_leaf = b.leaf; s_data = b.data })
      t.tree.(node);
    t.tree.(node) <- []
  done;
  (* the target's carried leaf follows the remap *)
  (match Hashtbl.find_opt t.stash id with
  | Some entry -> entry.s_leaf <- new_leaf
  | None -> ());
  let current = Option.map (fun e -> e.s_data) (Hashtbl.find_opt t.stash id) in
  (match mutate current with
  | Some data ->
      let padded = Bytes.make t.block_size '\x00' in
      Bytes.blit data 0 padded 0 (Bytes.length data);
      Hashtbl.replace t.stash id { s_leaf = new_leaf; s_data = padded }
  | None -> ());
  (* evict: deepest level first, greedily placing stash blocks whose
     assigned path shares this node with the accessed path *)
  for level = t.height downto 0 do
    let node = node_at t ~leaf:old_leaf ~level in
    let placed = ref [] in
    let count = ref 0 in
    Hashtbl.iter
      (fun bid entry ->
        if !count < t.bucket_capacity && node_at t ~leaf:entry.s_leaf ~level = node then begin
          placed := { id = bid; leaf = entry.s_leaf; data = entry.s_data } :: !placed;
          incr count
        end)
      t.stash;
    List.iter (fun b -> Hashtbl.remove t.stash b.id) !placed;
    t.tree.(node) <- !placed
  done;
  current

let write t id data =
  if String.length data > t.block_size then invalid_arg "Path_oram.write: data exceeds block";
  ignore (access t id ~mutate:(fun _ -> Some (Bytes.of_string data)))

let read t id =
  match access t id ~mutate:(fun _ -> None) with
  | Some data -> Some (Bytes.to_string data)
  | None -> None

let update t id f =
  ignore
    (access t id ~mutate:(fun cur ->
         Some (Bytes.of_string (f (Option.map Bytes.to_string cur)))))
