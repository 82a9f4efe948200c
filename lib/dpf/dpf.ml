type key = {
  party : int;
  domain_bits : int; (* width of the index range this key covers *)
  value_len : int; (* 0 = selection-bit DPF *)
  root_seed : Bytes.t; (* 16 bytes *)
  root_t : int; (* control bit at the root (= party for fresh keys) *)
  cw_seeds : Bytes.t; (* full correction words, 16 bytes per level *)
  cw_bits : Bytes.t; (* 1 byte per level: tl lor (tr lsl 1) *)
  cw_offset : int; (* first level of cw_seeds/cw_bits that applies: sub-keys
                      produced by [make_subkey] share the parent arrays *)
  term_bits : int; (* selection keys: a terminal seed yields 2^term_bits
                      leaf bits (min 7 of the full key's domain); 0 for
                      value keys, whose tree runs down to every leaf *)
  leaf_lo : int; (* first leaf bit of each terminal block this key covers:
                    nonzero only for sub-keys below the terminal level *)
  cw_leaf : string; (* value keys: value_len bytes; selection keys: the
                       16-byte leaf correction word *)
}

let party k = k.party
let domain_bits k = k.domain_bits
let value_len k = k.value_len

let max_domain_bits = 30
let max_value_len = 0xffff

(* Early termination: a selection-bit key stops its tree [max_term_bits]
   levels above the leaves, and one PRG call on each terminal seed yields
   the [Prg.terminal_len * 8 = 128] selection bits below it. *)
let max_term_bits = 7

let () = assert (1 lsl max_term_bits = 8 * Prg.terminal_len)

(* Tree levels this key still expands, and the log-width of the leaf run
   each of its terminal nodes covers. *)
let tree_levels k = max 0 (k.domain_bits - k.term_bits)
let leaf_width k = k.domain_bits - tree_levels k

let cw_seed_pos k level = 16 * (k.cw_offset + level)
let cw_bit k level = Char.code (Bytes.get k.cw_bits (k.cw_offset + level))

(* ------------------------------------------------------------------ *)
(* Key generation                                                      *)
(* ------------------------------------------------------------------ *)

(* Keygen runs on the client, whose own query index [alpha] is the
   secret; it still must not branch on it, or a co-resident observer
   times the key out of the client. lw-lint's secret-branch rule keeps
   the per-level selects and the leaf one-hot below arithmetic. *)
(* lw-lint: secret alpha alpha_bit alpha_lo *)

(* The tree's seeds are secret on both sides: the two parties' seeds
   during keygen, and on the server every node's seed, its control bits
   and the leaf bits below it. They are data for the PRG, never a table
   index or a branch condition. *)
(* lw-lint: secret seed seeds s0 s1 ts chunk *)

(* [pick_int bit a b] is [a] when bit = 0, [b] when bit = 1, branch-free
   for bit in {0,1}. *)
let pick_int bit a b = ((1 - bit) * a) + (bit * b)

(* [eq_bit a b] is 1 when a = b, else 0, without a comparison branch: the
   top bit of [x lor (-x)] is set exactly when x <> 0. *)
let eq_bit a b =
  let x = a lxor b in
  1 - (((x lor (0 - x)) lsr (Sys.int_size - 1)) land 1)

(* The leaf correction word of a selection key:
   [Convert(s0) xor Convert(s1) xor e_{alpha_lo}]. The one-hot term is
   built by visiting all 128 bit positions and comparing each with
   [alpha_lo] arithmetically, so neither the bytes written nor the work
   done depend on where the point sits. *)
let leaf_correction ~s0 ~s1 ~alpha_lo =
  let n = Prg.terminal_len in
  let c0 = Bytes.create n and c1 = Bytes.create n in
  Prg.terminal_into ~src:s0 ~src_pos:0 ~dst:c0 ~dst_pos:0;
  Prg.terminal_into ~src:s1 ~src_pos:0 ~dst:c1 ~dst_pos:0;
  String.init n (fun i ->
      let onehot = ref 0 in
      for j = 0 to 7 do
        onehot := !onehot lor (eq_bit ((8 * i) + j) alpha_lo lsl j)
      done;
      Char.unsafe_chr
        (Char.code (Bytes.get c0 i) lxor Char.code (Bytes.get c1 i) lxor !onehot))

let gen ?value ~domain_bits ~alpha rng =
  if domain_bits < 1 || domain_bits > max_domain_bits then
    invalid_arg "Dpf.gen: domain_bits out of range";
  (* domain bound check: public bounds, rejected before any use *)
  if alpha < 0 || alpha >= 1 lsl domain_bits then (* lw-lint: allow secret-branch taint *)
    invalid_arg "Dpf.gen: alpha out of domain";
  let value_len = match value with None -> 0 | Some v -> String.length v in
  if value_len > max_value_len then invalid_arg "Dpf.gen: value too long";
  let d = domain_bits in
  let term_bits = if value_len = 0 then min max_term_bits d else 0 in
  let levels = d - term_bits in
  (* both parties' seeds side by side: s0 at 0, s1 at 16, so one PRG
     call per level expands the pair *)
  let seeds = Bytes.create 32 in
  Bytes.blit_string (Lw_crypto.Drbg.generate rng 16) 0 seeds 0 16;
  Bytes.blit_string (Lw_crypto.Drbg.generate rng 16) 0 seeds 16 16;
  (* seeds keep their low bit of byte 15 clear, matching PRG outputs *)
  let clear_low pos = Bytes.set seeds pos (Char.chr (Char.code (Bytes.get seeds pos) land 0xfe)) in
  clear_low 15;
  clear_low 31;
  let root0 = Bytes.sub seeds 0 16 and root1 = Bytes.sub seeds 16 16 in
  let t0 = ref 0 and t1 = ref 1 in
  let cw_seeds = Bytes.create (16 * levels) in
  let cw_bits = Bytes.create levels in
  (* uncorrected expansions: control bits 0, so the zero correction
     word is masked out *)
  let no_ts = Bytes.make 2 '\x00' and no_cw = Bytes.make 16 '\x00' in
  (* c0 at 0 and c1 at 32; their control bits tl0 tr0 tl1 tr1 in [tb] *)
  let c = Bytes.create 64 and tb = Bytes.create 4 in
  for level = 0 to levels - 1 do
    Prg.expand_level ~src:seeds ~src_pos:0 ~ts:no_ts ~ts_pos:0 ~n:2 ~cw:no_cw ~cw_pos:0
      ~cw_bits:0 ~dst:c ~t_out:tb;
    let tbit i = Char.code (Bytes.get tb i) in
    let tl0 = tbit 0 and tr0 = tbit 1 and tl1 = tbit 2 and tr1 = tbit 3 in
    let alpha_bit = Lw_util.Bitops.bit_msb alpha ~width:d level in
    (* keep = the child alpha descends into; lose = the other. Both
       halves of each expansion are read on every level and combined
       through the splatted mask, so neither the offsets touched nor
       the instructions executed follow the secret bit. *)
    let m = (0 - alpha_bit) land 0xff in
    let sel_keep c_pos i =
      (Char.code (Bytes.get c (c_pos + i)) land lnot m)
      lor (Char.code (Bytes.get c (c_pos + 16 + i)) land m)
    in
    let sel_lose c_pos i =
      (Char.code (Bytes.get c (c_pos + i)) land m)
      lor (Char.code (Bytes.get c (c_pos + 16 + i)) land lnot m)
    in
    for i = 0 to 15 do
      Bytes.set cw_seeds ((16 * level) + i)
        (Char.unsafe_chr (sel_lose 0 i lxor sel_lose 32 i))
    done;
    let tl_cw = tl0 lxor tl1 lxor alpha_bit lxor 1 in
    let tr_cw = tr0 lxor tr1 lxor alpha_bit in
    Bytes.set cw_bits level (Char.chr (tl_cw lor (tr_cw lsl 1)));
    let tkeep_cw = pick_int alpha_bit tl_cw tr_cw in
    let step s_pos c_pos t tkeep =
      for i = 0 to 15 do
        Bytes.set seeds (s_pos + i) (Char.unsafe_chr (sel_keep c_pos i))
      done;
      (* the correction is applied under a mask splatted from the
         control bit: same XOR work whether t is 0 or 1 *)
      Lw_util.Xorbuf.xor_into_masked
        ~mask:((0 - (t land 1)) land 0xff)
        ~src:cw_seeds ~src_pos:(16 * level) ~dst:seeds ~dst_pos:s_pos ~len:16;
      tkeep lxor (t land tkeep_cw)
    in
    let tkeep0 = pick_int alpha_bit tl0 tr0 in
    let tkeep1 = pick_int alpha_bit tl1 tr1 in
    let t0' = step 0 0 !t0 tkeep0 in
    let t1' = step 16 32 !t1 tkeep1 in
    t0 := t0';
    t1 := t1'
  done;
  let s0 = Bytes.sub seeds 0 16 and s1 = Bytes.sub seeds 16 16 in
  let cw_leaf =
    match value with
    | None ->
        let alpha_lo = alpha land ((1 lsl term_bits) - 1) in
        leaf_correction ~s0 ~s1 ~alpha_lo
    | Some v ->
        let conv s = Prg.convert ~seed:s ~pos:0 ~len:value_len in
        Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor v (conv s0)) (conv s1)
  in
  let mk party root_seed =
    {
      party;
      domain_bits = d;
      value_len;
      root_seed;
      root_t = party;
      cw_seeds;
      cw_bits;
      cw_offset = 0;
      term_bits;
      leaf_lo = 0;
      cw_leaf;
    }
  in
  (mk 0 root0, mk 1 root1)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Evaluation crosses into the PRG once per tree level, never per node:
   [expand] takes [n] seeds and their control bits (0/1 bytes) one
   level down with this key's correction word for [level], applied under
   each parent's control-bit mask, and [leaves] turns [n] terminal seeds
   into their leaf bits. Neither branches on a seed or a control bit. *)
let expand k ~level ~src ~src_pos ~ts ~ts_pos ~n ~dst ~t_out =
  Prg.expand_level ~src ~src_pos ~ts ~ts_pos ~n ~cw:k.cw_seeds ~cw_pos:(cw_seed_pos k level)
    ~cw_bits:(cw_bit k level) ~dst ~t_out

let leaves k ~src ~ts ~n ~from ~count ~dst =
  Prg.leaves ~src ~src_pos:0 ~ts ~ts_pos:0 ~n ~cw:k.cw_leaf ~from ~count ~dst ~dst_pos:0

let root_t_buf k = Bytes.make 1 (Char.unsafe_chr k.root_t)

(* The terminal node on [x]'s path: its seed and its control bit as a
   one-byte buffer. *)
let walk k x =
  if x < 0 || x >= 1 lsl k.domain_bits then invalid_arg "Dpf.eval: index out of domain";
  let seed = Bytes.copy k.root_seed and t = root_t_buf k in
  let children = Bytes.create 32 and t_out = Bytes.create 2 in
  for level = 0 to tree_levels k - 1 do
    expand k ~level ~src:seed ~src_pos:0 ~ts:t ~ts_pos:0 ~n:1 ~dst:children ~t_out;
    let b = Lw_util.Bitops.bit_msb x ~width:k.domain_bits level in
    Bytes.blit children (16 * b) seed 0 16;
    Bytes.blit t_out b t 0 1
  done;
  (seed, t)

(* A value key's terminal is a single leaf whose selection share is its
   control bit. *)
let eval_bit k x =
  let seed, t = walk k x in
  if k.value_len > 0 then Char.code (Bytes.get t 0)
  else begin
    let out = Bytes.create 1 in
    leaves k ~src:seed ~ts:t ~n:1 ~from:(k.leaf_lo + (x land ((1 lsl leaf_width k) - 1))) ~count:1
      ~dst:out;
    Char.code (Bytes.get out 0)
  end

let eval_value k x =
  if k.value_len = 0 then invalid_arg "Dpf.eval_value: selection-bit key";
  let seed, t = walk k x in
  let share = Bytes.of_string (Prg.convert ~seed ~pos:0 ~len:k.value_len) in
  Lw_util.Xorbuf.xor_into_masked
    ~mask:((0 - (Char.code (Bytes.get t 0) land 1)) land 0xff)
    ~src:(Bytes.unsafe_of_string k.cw_leaf) ~src_pos:0 ~dst:share ~dst_pos:0 ~len:k.value_len;
  Bytes.unsafe_to_string share

(* The 2^g descendants of one node, [g] levels below [level]: breadth
   first, one [expand] call per level, ping-ponging between the two
   buffers of [seeds] and of [ts]. Returns the index of the pair that
   holds them. *)
let expand_down k ~level ~g ~seed ~seed_pos ~t_buf ~t_pos ~seeds ~ts =
  Bytes.blit seed seed_pos seeds.(0) 0 16;
  Bytes.blit t_buf t_pos ts.(0) 0 1;
  for l = 0 to g - 1 do
    let i = l land 1 in
    expand k ~level:(level + l) ~src:seeds.(i) ~src_pos:0 ~ts:ts.(i) ~ts_pos:0 ~n:(1 lsl l)
      ~dst:seeds.(1 - i) ~t_out:ts.(1 - i)
  done;
  g land 1

(* Two seed buffers and two control-bit buffers for [nodes] nodes. *)
let node_buffers nodes =
  ( [| Bytes.create (16 * nodes); Bytes.create (16 * nodes) |],
    [| Bytes.create nodes; Bytes.create nodes |] )

(* Depth-first expansion of the top [depth] levels: [f index seed_buf
   seed_pos t_buf t_pos] at every node of that depth, in order. The walk
   goes [group_levels] levels at a time, [expand_down] from a node to
   its 2^group_levels descendants and then into each of them. Each
   group owns preallocated buffers, so no allocation happens per node,
   and a full walk makes about 3/7 of a PRG call per node, not one. *)
let group_levels = 3

let eval_depth_bufs k ~depth f =
  let groups =
    Array.init ((depth + group_levels - 1) / group_levels) (fun _ ->
        node_buffers (1 lsl group_levels))
  in
  let rec go level group seed seed_pos t_buf t_pos index =
    if level = depth then f index seed seed_pos t_buf t_pos
    else begin
      let g = min group_levels (depth - level) in
      let seeds, ts = groups.(group) in
      let r = expand_down k ~level ~g ~seed ~seed_pos ~t_buf ~t_pos ~seeds ~ts in
      for j = 0 to (1 lsl g) - 1 do
        go (level + g) (group + 1) seeds.(r) (16 * j) ts.(r) j ((index lsl g) lor j)
      done
    end
  in
  go 0 0 (Bytes.copy k.root_seed) 0 (root_t_buf k) 0 0

let eval_depth k ~depth f =
  eval_depth_bufs k ~depth (fun index seed pos t_buf t_pos ->
      f index (Char.code (Bytes.get t_buf t_pos)) seed pos)

let eval_all_seeds k f =
  if k.value_len = 0 then invalid_arg "Dpf.eval_all_seeds: selection-bit key";
  eval_depth k ~depth:k.domain_bits f

(* Blocked leaf-bit streaming. The traversal goes depth first down to
   the root of a chunk's subtree, [expand_down] through the [sub] levels
   below it, and one [leaves] call turns the chunk's terminal nodes into
   its leaf bytes. A chunk is one block, or, when a block covers fewer
   than 2^chunk_node_bits terminal nodes, the leaves under that many of
   them, handed out a block at a time. Scratch stays one chunk's worth
   of nodes and leaves (at most 8 KiB of leaf bytes beyond the block),
   cache-resident instead of the full-domain buffer an [eval_all_bits]
   caller would materialise: the traversal half of the PIR server's
   fused eval↔scan kernel. *)
let chunk_node_bits = 6

let eval_bits_blocked k ~block_bits f =
  if block_bits < 0 || block_bits > k.domain_bits then
    invalid_arg "Dpf.eval_bits_blocked: block_bits out of range";
  let w = leaf_width k in
  let chunk_bits = max block_bits (min k.domain_bits (w + chunk_node_bits)) in
  let sub = chunk_bits - w in
  let top = tree_levels k - sub in
  let nodes = 1 lsl sub in
  let seeds, ts = node_buffers nodes in
  (* a value key's leaf bits are its last level's control bits *)
  let leaf_bytes = if k.value_len > 0 then Bytes.empty else Bytes.create (1 lsl chunk_bits) in
  let block = 1 lsl block_bits in
  let buf = if block_bits = chunk_bits then Bytes.empty else Bytes.create block in
  eval_depth_bufs k ~depth:top (fun node seed seed_pos t_buf t_pos ->
      let r = expand_down k ~level:top ~g:sub ~seed ~seed_pos ~t_buf ~t_pos ~seeds ~ts in
      let chunk =
        if k.value_len > 0 then ts.(r)
        else begin
          leaves k ~src:seeds.(r) ~ts:ts.(r) ~n:nodes ~from:k.leaf_lo ~count:(1 lsl w)
            ~dst:leaf_bytes;
          leaf_bytes
        end
      in
      let base = node lsl chunk_bits in
      if block_bits = chunk_bits then f base chunk block
      else
        for b = 0 to (1 lsl (chunk_bits - block_bits)) - 1 do
          Bytes.blit chunk (b * block) buf 0 block;
          f (base + (b * block)) buf block
        done)

let eval_all_bits k f =
  eval_bits_blocked k ~block_bits:(min k.domain_bits 10) (fun base buf count ->
      for j = 0 to count - 1 do
        f (base + j) (Char.code (Bytes.unsafe_get buf j))
      done)

(* Diagnostic only: recovering the selected support from the leaf bits
   is inherently selection-dependent control flow, and this helper never
   runs on the server answer path — tests and debugging use it to check
   a key's point function. *)
let selected_indices k =
  let acc = ref [] in
  (* lw-lint: allow taint *)
  eval_all_bits k (fun x t -> if t = 1 then acc := x :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Distributed-evaluation hooks                                        *)
(* ------------------------------------------------------------------ *)

(* Prefixes below the terminal level share their terminal node: each of
   the [2^(levels - tree)] prefixes under it gets that node's seed and
   control bit, and [make_subkey] narrows the leaf range instead. *)
let eval_prefixes k ~levels f =
  if levels < 0 || levels > k.domain_bits then invalid_arg "Dpf.eval_prefixes: bad level count";
  let used = min levels (tree_levels k) in
  let below = levels - used in
  eval_depth k ~depth:used (fun node t seed pos ->
      for r = 0 to (1 lsl below) - 1 do
        f ((node lsl below) lor r) t seed pos
      done)

let make_subkey k ~prefix ~root_seed ~root_pos ~root_t ~levels =
  if levels < 0 || levels >= k.domain_bits then invalid_arg "Dpf.make_subkey: bad level count";
  let used = min levels (tree_levels k) in
  let below = levels - used in
  let domain_bits = k.domain_bits - levels in
  let seed = Bytes.create 16 in
  Bytes.blit root_seed root_pos seed 0 16;
  {
    k with
    domain_bits;
    root_seed = seed;
    root_t;
    cw_offset = k.cw_offset + used;
    leaf_lo = k.leaf_lo + ((prefix land ((1 lsl below) - 1)) lsl domain_bits);
  }

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

(* Layout (version 2): 'D', version, party, root_t, prg tag, domain_bits,
   term_bits, leaf_lo, value_len (u16 BE); root seed (16); per tree level
   a 16-byte seed correction word, then one control-bit byte per level;
   the leaf correction word (16 bytes for selection keys, value_len for
   value keys). *)

let magic = 'D'
let version = 2
let header_len = 10

(* The PRG tag every key carries: AES-MMO, the only PRG. A key with any
   other tag is rejected as unknown. *)
let aes_mmo_tag = 0

type decode_error = Unsupported_version of int | Malformed of string

let decode_error_message = function
  | Unsupported_version v -> Printf.sprintf "unsupported key version %d (want %d)" v version
  | Malformed msg -> msg

let serialized_size ~domain_bits ~value_len =
  if value_len = 0 then
    header_len + 16 + (17 * (domain_bits - min max_term_bits domain_bits)) + Prg.terminal_len
  else header_len + 16 + (17 * domain_bits) + value_len

let paper_key_size ~domain_bits = (128 + 2) * domain_bits

let serialize k =
  let levels = tree_levels k in
  let buf = Buffer.create (serialized_size ~domain_bits:k.domain_bits ~value_len:k.value_len) in
  Buffer.add_char buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr k.party);
  Buffer.add_char buf (Char.chr k.root_t);
  Buffer.add_char buf (Char.chr aes_mmo_tag);
  Buffer.add_char buf (Char.chr k.domain_bits);
  Buffer.add_char buf (Char.chr k.term_bits);
  Buffer.add_char buf (Char.chr k.leaf_lo);
  Buffer.add_uint16_be buf k.value_len;
  Buffer.add_subbytes buf k.root_seed 0 16;
  Buffer.add_subbytes buf k.cw_seeds (16 * k.cw_offset) (16 * levels);
  Buffer.add_subbytes buf k.cw_bits k.cw_offset levels;
  Buffer.add_string buf k.cw_leaf;
  Buffer.contents buf

let deserialize s =
  let err msg = Error (Malformed msg) in
  if String.length s < header_len then err "short header"
  else if s.[0] <> magic then err "bad magic"
  else if Char.code s.[1] <> version then Error (Unsupported_version (Char.code s.[1]))
  else begin
    let party = Char.code s.[2] and root_t = Char.code s.[3] in
    let prg_tag = Char.code s.[4] and d = Char.code s.[5] in
    let term_bits = Char.code s.[6] and leaf_lo = Char.code s.[7] in
    let value_len = String.get_uint16_be s 8 in
    let width = min term_bits d in
    if party > 1 then err "bad party"
    else if root_t > 1 then err "bad root bit"
    else if d < 1 || d > max_domain_bits then err "bad domain_bits"
    else if
      (value_len > 0 && term_bits <> 0)
      (* a selection key terminates 7 levels early, or at the root of a
         domain narrower than that *)
      || value_len = 0
         && term_bits <> max_term_bits
         && not (1 <= term_bits && term_bits < max_term_bits && d <= term_bits)
    then err "bad term_bits"
    else if leaf_lo >= 1 lsl term_bits || leaf_lo land ((1 lsl width) - 1) <> 0 then
      err "bad leaf_lo"
    else if prg_tag <> aes_mmo_tag then err "unknown prg"
    else begin
      let levels = d - width in
      if String.length s <> serialized_size ~domain_bits:d ~value_len then err "length mismatch"
      else begin
        let pos = ref header_len in
        let take n =
          let sub = String.sub s !pos n in
          pos := !pos + n;
          sub
        in
        let root_seed = Bytes.of_string (take 16) in
        let cw_seeds = Bytes.of_string (take (16 * levels)) in
        let cw_bits = Bytes.of_string (take levels) in
        let cw_leaf = take (String.length s - !pos) in
        let bits_ok = ref true in
        Bytes.iter (fun c -> if Char.code c > 3 then bits_ok := false) cw_bits;
        if not !bits_ok then err "bad control bits"
        else
          Ok
            {
              party;
              domain_bits = d;
              value_len;
              root_seed;
              root_t;
              cw_seeds;
              cw_bits;
              cw_offset = 0;
              term_bits;
              leaf_lo;
              cw_leaf;
            }
      end
    end
  end
