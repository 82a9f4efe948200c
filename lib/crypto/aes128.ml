(* AES-128 in C (aes_stubs.c): one body, one build per instruction set,
   the build picked once from CPUID. A key is its 11 round keys, in
   FIPS-197 byte order (176 bytes) and in the bitsliced build's
   bit-plane form (704 bytes), computed in C in constant time. The
   externals read no OCaml value but their arguments and allocate
   nothing; the build index and every range are checked here first. *)

type key = Bytes.t

let key_bytes = 176 + (11 * 64)

external c_builds : unit -> string array = "lw_aes_builds"
external c_first : unit -> int = "lw_aes_first"
external c_expand_key : string -> Bytes.t -> unit = "lw_aes_expand_key" [@@noalloc]

external c_encrypt : int -> Bytes.t -> Bytes.t -> int -> int -> unit = "lw_aes_encrypt"
[@@noalloc]

external c_mmo : int -> Bytes.t -> int -> Bytes.t -> int -> Bytes.t -> int -> int -> unit
  = "lw_aes_mmo_byte" "lw_aes_mmo"
[@@noalloc]

external c_level :
  int -> Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> int -> Bytes.t -> int -> int -> Bytes.t ->
  Bytes.t -> unit = "lw_aes_level_byte" "lw_aes_level"
[@@noalloc]

external c_leaves :
  int -> Bytes.t -> Bytes.t -> int -> Bytes.t -> int -> int -> string -> int -> int -> Bytes.t ->
  int -> unit = "lw_aes_leaves_byte" "lw_aes_leaves"
[@@noalloc]

external c_gen :
  int -> Bytes.t -> Bytes.t -> int -> int -> int -> int -> Bytes.t -> Bytes.t -> Bytes.t ->
  Bytes.t -> Bytes.t -> unit = "lw_aes_gen_byte" "lw_aes_gen"
[@@noalloc]

(* Every build, preferred first; the CPU runs those from [first] on, and
   every call runs [first]. *)
let all_builds = c_builds ()
let first = c_first ()
let build () = all_builds.(first)
let builds () = Array.to_list (Array.sub all_builds first (Array.length all_builds - first))

let build_index name =
  match Array.find_index (Ct.equal name) all_builds with
  | Some i when i >= first -> i
  | _ -> invalid_arg "Aes128: build not runnable on this CPU"

let check name pos len total =
  if pos < 0 || len < 0 || pos > total - len then
    invalid_arg (Printf.sprintf "Aes128.%s: range out of bounds" name)

let expand_key k =
  if String.length k <> 16 then invalid_arg "Aes128.expand_key: key must be 16 bytes";
  let rk = Bytes.create key_bytes in
  c_expand_key k rk;
  rk

(* Each entry point is a [_with] function on a build index, run on
   [first] and, for tests and benchmarks, on a named build. *)
let encrypt_with b key ~src ~src_pos ~dst ~dst_pos ~blocks =
  if blocks < 0 || blocks > Bytes.length src / 16 then
    invalid_arg "Aes128.encrypt_blocks_on: range out of bounds";
  check "encrypt_blocks_on(src)" src_pos (16 * blocks) (Bytes.length src);
  check "encrypt_blocks_on(dst)" dst_pos (16 * blocks) (Bytes.length dst);
  Bytes.blit src src_pos dst dst_pos (16 * blocks);
  c_encrypt b key dst dst_pos blocks

let encrypt_blocks_on ~build key ~src ~src_pos ~dst ~dst_pos ~blocks =
  encrypt_with (build_index build) key ~src ~src_pos ~dst ~dst_pos ~blocks

let encrypt_block w block =
  if String.length block <> 16 then invalid_arg "Aes128.encrypt_block: block must be 16 bytes";
  let dst = Bytes.create 16 in
  encrypt_with first w ~src:(Bytes.unsafe_of_string block) ~src_pos:0 ~dst ~dst_pos:0 ~blocks:1;
  Bytes.unsafe_to_string dst

let mmo_fixed_key = expand_key (String.sub "lightweb-mmo-key!" 0 16)

let mmo_with b w ~tweak ~src ~src_pos ~dst ~dst_pos ~blocks =
  if blocks < 0 || blocks > Bytes.length src / 16 then
    invalid_arg "Aes128.mmo_blocks_on: range out of bounds";
  check "mmo_blocks_on(src)" src_pos (16 * blocks) (Bytes.length src);
  check "mmo_blocks_on(dst)" dst_pos (16 * blocks) (Bytes.length dst);
  c_mmo b w tweak src src_pos dst dst_pos blocks

let mmo_blocks_on ~build w ~tweak ~src ~src_pos ~dst ~dst_pos ~blocks =
  mmo_with (build_index build) w ~tweak ~src ~src_pos ~dst ~dst_pos ~blocks

(* One block: C reads all of [src] before it writes [dst], so the two
   may be the same buffer. *)
let mmo_hash_into w ~tweak ~src ~src_pos ~dst ~dst_pos =
  check "mmo_hash_into(src)" src_pos 16 (Bytes.length src);
  check "mmo_hash_into(dst)" dst_pos 16 (Bytes.length dst);
  c_mmo first w tweak src src_pos dst dst_pos 1

let mmo_hash w ~tweak s =
  if String.length s <> 16 then invalid_arg "Aes128.mmo_hash: input must be 16 bytes";
  let out = Bytes.create 16 in
  mmo_with first w ~tweak ~src:(Bytes.of_string s) ~src_pos:0 ~dst:out ~dst_pos:0 ~blocks:1;
  Bytes.unsafe_to_string out

let level_with b w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~cw_pos ~cw_bits ~dst ~t_out =
  if n < 0 || n > Bytes.length src / 16 || n > Bytes.length dst / 32 then
    invalid_arg "Aes128.mmo_level: range out of bounds";
  check "mmo_level(src)" src_pos (16 * n) (Bytes.length src);
  check "mmo_level(ts)" ts_pos n (Bytes.length ts);
  check "mmo_level(cw)" cw_pos 16 (Bytes.length cw);
  check "mmo_level(t_out)" 0 (2 * n) (Bytes.length t_out);
  c_level b w src src_pos ts ts_pos n cw cw_pos cw_bits dst t_out

let mmo_level w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~cw_pos ~cw_bits ~dst ~t_out =
  level_with first w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~cw_pos ~cw_bits ~dst ~t_out

let mmo_level_on ~build w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~cw_pos ~cw_bits ~dst ~t_out =
  level_with (build_index build) w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~cw_pos ~cw_bits ~dst ~t_out

let leaves_with b w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~from ~count ~dst ~dst_pos =
  if n < 0 || n > Bytes.length src / 16 then invalid_arg "Aes128.mmo_leaves: range out of bounds";
  check "mmo_leaves(src)" src_pos (16 * n) (Bytes.length src);
  check "mmo_leaves(ts)" ts_pos n (Bytes.length ts);
  if String.length cw <> 16 then invalid_arg "Aes128.mmo_leaves: correction must be 16 bytes";
  check "mmo_leaves(bits)" from count 128;
  if count > 0 && n > Bytes.length dst / count then
    invalid_arg "Aes128.mmo_leaves: range out of bounds";
  check "mmo_leaves(dst)" dst_pos (n * count) (Bytes.length dst);
  c_leaves b w src src_pos ts ts_pos n cw from count dst dst_pos

let mmo_leaves w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~from ~count ~dst ~dst_pos =
  leaves_with first w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~from ~count ~dst ~dst_pos

let mmo_leaves_on ~build w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~from ~count ~dst ~dst_pos =
  leaves_with (build_index build) w ~src ~src_pos ~ts ~ts_pos ~n ~cw ~from ~count ~dst ~dst_pos

let gen_with b w ~seeds ~alpha ~domain_bits ~levels ~alpha_lo ~root0 ~root1 ~cw_seeds ~cw_bits
    ~leaf =
  if domain_bits < 1 || domain_bits > 62 || levels < 0 || levels > domain_bits then
    invalid_arg "Aes128.mmo_gen: bad domain";
  check "mmo_gen(seeds)" 0 32 (Bytes.length seeds);
  check "mmo_gen(root0)" 0 16 (Bytes.length root0);
  check "mmo_gen(root1)" 0 16 (Bytes.length root1);
  check "mmo_gen(cw_seeds)" 0 (16 * levels) (Bytes.length cw_seeds);
  check "mmo_gen(cw_bits)" 0 levels (Bytes.length cw_bits);
  check "mmo_gen(leaf)" 0 16 (Bytes.length leaf);
  c_gen b w seeds alpha domain_bits levels alpha_lo root0 root1 cw_seeds cw_bits leaf

let mmo_gen w ~seeds ~alpha ~domain_bits ~levels ~alpha_lo ~root0 ~root1 ~cw_seeds ~cw_bits ~leaf
    =
  gen_with first w ~seeds ~alpha ~domain_bits ~levels ~alpha_lo ~root0 ~root1 ~cw_seeds ~cw_bits
    ~leaf

let mmo_gen_on ~build w ~seeds ~alpha ~domain_bits ~levels ~alpha_lo ~root0 ~root1 ~cw_seeds
    ~cw_bits ~leaf =
  gen_with (build_index build) w ~seeds ~alpha ~domain_bits ~levels ~alpha_lo ~root0 ~root1
    ~cw_seeds ~cw_bits ~leaf
