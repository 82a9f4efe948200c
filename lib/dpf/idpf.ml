type key = {
  party : int;
  domain_bits : int;
  root_seed : Bytes.t;
  root_t : int;
  cw_seeds : Bytes.t; (* 16 bytes per level *)
  cw_bits : Bytes.t; (* tl lor (tr lsl 1), one byte per level *)
  cw_values : string array; (* one XOR value correction word per level *)
  cw_counts : int64 array; (* one additive correction word per level *)
}

let party k = k.party
let domain_bits k = k.domain_bits
let value_len k ~level =
  if level < 1 || level > k.domain_bits then invalid_arg "Idpf.value_len: level out of range";
  String.length k.cw_values.(level - 1)

(* interpret 8 pseudorandom bytes of the seed's conversion as an int64 *)
let conv_int s =
  let bytes = Prg.convert ~seed:s ~pos:0 ~len:8 in
  String.get_int64_le bytes 0

let gen ~domain_bits ~alpha ~values rng =
  if domain_bits < 1 || domain_bits > 30 then invalid_arg "Idpf.gen: domain_bits out of range";
  if alpha < 0 || alpha >= 1 lsl domain_bits then invalid_arg "Idpf.gen: alpha out of domain";
  if Array.length values <> domain_bits then invalid_arg "Idpf.gen: need one value per level";
  Array.iter (fun v -> if String.length v = 0 then invalid_arg "Idpf.gen: empty value") values;
  let d = domain_bits in
  let clear_low b = Bytes.set b 15 (Char.chr (Char.code (Bytes.get b 15) land 0xfe)) in
  let s0 = Bytes.of_string (Lw_crypto.Drbg.generate rng 16) in
  let s1 = Bytes.of_string (Lw_crypto.Drbg.generate rng 16) in
  clear_low s0;
  clear_low s1;
  let root0 = Bytes.copy s0 and root1 = Bytes.copy s1 in
  let t0 = ref 0 and t1 = ref 1 in
  let cw_seeds = Bytes.create (16 * d) in
  let cw_bits = Bytes.create d in
  let cw_values = Array.make d "" in
  let cw_counts = Array.make d 0L in
  (* one PRG call per level expands both parties' on-path seeds: c0 at
     0, c1 at 32, uncorrected (control bits 0 mask the zero word out) *)
  let pair = Bytes.create 32 and c = Bytes.create 64 and tb = Bytes.create 4 in
  let no_ts = Bytes.make 2 '\x00' and no_cw = Bytes.make 16 '\x00' in
  for level = 0 to d - 1 do
    Bytes.blit s0 0 pair 0 16;
    Bytes.blit s1 0 pair 16 16;
    Prg.expand_level ~src:pair ~src_pos:0 ~ts:no_ts ~ts_pos:0 ~n:2 ~cw:no_cw ~cw_pos:0
      ~cw_bits:0 ~dst:c ~t_out:tb;
    let tbit i = Char.code (Bytes.get tb i) in
    let tl0 = tbit 0 and tr0 = tbit 1 and tl1 = tbit 2 and tr1 = tbit 3 in
    let alpha_bit = Lw_util.Bitops.bit_msb alpha ~width:d level in
    let keep_off = if alpha_bit = 0 then 0 else 16 in
    let lose_off = 16 - keep_off in
    for i = 0 to 15 do
      Bytes.set cw_seeds ((16 * level) + i)
        (Char.unsafe_chr
           (Char.code (Bytes.get c (lose_off + i))
           lxor Char.code (Bytes.get c (32 + lose_off + i))))
    done;
    let tl_cw = tl0 lxor tl1 lxor alpha_bit lxor 1 in
    let tr_cw = tr0 lxor tr1 lxor alpha_bit in
    Bytes.set cw_bits level (Char.chr (tl_cw lor (tr_cw lsl 1)));
    let tkeep_cw = if alpha_bit = 0 then tl_cw else tr_cw in
    let step s c_pos t tkeep =
      Bytes.blit c (c_pos + keep_off) s 0 16;
      if t = 1 then
        Lw_util.Xorbuf.xor_into ~src:cw_seeds ~src_pos:(16 * level) ~dst:s ~dst_pos:0 ~len:16;
      tkeep lxor (t land tkeep_cw)
    in
    let tkeep0 = if alpha_bit = 0 then tl0 else tr0 in
    let tkeep1 = if alpha_bit = 0 then tl1 else tr1 in
    let t0' = step s0 0 !t0 tkeep0 in
    let t1' = step s1 32 !t1 tkeep1 in
    t0 := t0';
    t1 := t1';
    (* per-level value correction word from the fresh on-path seeds *)
    let len = String.length values.(level) in
    let conv s = Prg.convert ~seed:s ~pos:0 ~len in
    cw_values.(level) <- Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor values.(level) (conv s0)) (conv s1);
    (* additive correction word: with out_b = (-1)^b (conv_int_b + t_b*CW)
       and CW = (-1)^{t1} (1 - conv_int(s0) + conv_int(s1)), the shares sum
       to 1 on-path and 0 elsewhere (BGI16's group-output conversion) *)
    let ci = Int64.sub (Int64.sub 1L (conv_int s0)) (Int64.neg (conv_int s1)) in
    cw_counts.(level) <- (if !t1 = 1 then Int64.neg ci else ci)
  done;
  let mk party root_seed =
    {
      party;
      domain_bits = d;
      root_seed;
      root_t = party;
      cw_seeds;
      cw_bits;
      cw_values;
      cw_counts;
    }
  in
  (mk 0 root0, mk 1 root1)

(* The control-bit buffers of [expand_node]: the parent's bit in, the
   children's two out. One pair per evaluation, so a node allocates
   nothing. *)
type scratch = { t_in : Bytes.t; t_out : Bytes.t }

let scratch () = { t_in = Bytes.create 1; t_out = Bytes.create 2 }

(* One node one level down, through the same level call as [Dpf]: the
   correction goes in under the control bit's mask, not behind a branch.
   Returns the corrected control bits, tl lor (tr lsl 1). *)
let expand_node k sc ~level ~seed ~seed_pos ~t ~children =
  Bytes.set sc.t_in 0 (Char.unsafe_chr t);
  Prg.expand_level ~src:seed ~src_pos:seed_pos ~ts:sc.t_in ~ts_pos:0 ~n:1 ~cw:k.cw_seeds
    ~cw_pos:(16 * level)
    ~cw_bits:(Char.code (Bytes.get k.cw_bits level))
    ~dst:children ~t_out:sc.t_out;
  Char.code (Bytes.get sc.t_out 0) lor (Char.code (Bytes.get sc.t_out 1) lsl 1)

let share_of k ~level ~seed ~pos ~t =
  let len = String.length k.cw_values.(level - 1) in
  let share = Prg.convert ~seed ~pos ~len in
  if t = 1 then Lw_util.Xorbuf.xor share k.cw_values.(level - 1) else share

let eval_prefix k ~level p =
  if level < 1 || level > k.domain_bits then invalid_arg "Idpf.eval_prefix: level out of range";
  if p < 0 || p >= 1 lsl level then invalid_arg "Idpf.eval_prefix: prefix out of range";
  let seed = Bytes.copy k.root_seed in
  let children = Bytes.create 32 in
  let t = ref k.root_t and sc = scratch () in
  for l = 0 to level - 1 do
    let bits = expand_node k sc ~level:l ~seed ~seed_pos:0 ~t:!t ~children in
    let b = Lw_util.Bitops.bit_msb p ~width:level l in
    Bytes.blit children (16 * b) seed 0 16;
    t := (bits lsr b) land 1
  done;
  share_of k ~level ~seed ~pos:0 ~t:!t

let count_share_of k ~level ~seed ~pos ~t =
  (* out_b = (-1)^b (conv_int + t * CW) *)
  let tmp = Bytes.create 16 in
  Bytes.blit seed pos tmp 0 16;
  let base = conv_int tmp in
  let v =
    if t = 1 then Int64.add base k.cw_counts.(level - 1) else base
  in
  if k.party = 1 then Int64.neg v else v

let eval_prefix_count k ~level p =
  if level < 1 || level > k.domain_bits then invalid_arg "Idpf.eval_prefix: level out of range";
  if p < 0 || p >= 1 lsl level then invalid_arg "Idpf.eval_prefix: prefix out of range";
  let seed = Bytes.copy k.root_seed in
  let children = Bytes.create 32 in
  let t = ref k.root_t and sc = scratch () in
  for l = 0 to level - 1 do
    let bits = expand_node k sc ~level:l ~seed ~seed_pos:0 ~t:!t ~children in
    let b = Lw_util.Bitops.bit_msb p ~width:level l in
    Bytes.blit children (16 * b) seed 0 16;
    t := (bits lsr b) land 1
  done;
  count_share_of k ~level ~seed ~pos:0 ~t:!t

let eval_all_level k ~level f =
  if level < 1 || level > k.domain_bits then invalid_arg "Idpf.eval_all_level: level out of range";
  let bufs = Array.init level (fun _ -> Bytes.create 32) and sc = scratch () in
  let rec go l seed_buf seed_pos prefix t =
    if l = level then f prefix (share_of k ~level ~seed:seed_buf ~pos:seed_pos ~t)
    else begin
      let children = bufs.(l) in
      let bits = expand_node k sc ~level:l ~seed:seed_buf ~seed_pos ~t ~children in
      go (l + 1) children 0 (2 * prefix) (bits land 1);
      go (l + 1) children 16 ((2 * prefix) + 1) (bits lsr 1)
    end
  in
  go 0 (Bytes.copy k.root_seed) 0 0 k.root_t

let eval_all_level_counts k ~level f =
  if level < 1 || level > k.domain_bits then invalid_arg "Idpf.eval_all_level: level out of range";
  let bufs = Array.init level (fun _ -> Bytes.create 32) and sc = scratch () in
  let rec go l seed_buf seed_pos prefix t =
    if l = level then f prefix (count_share_of k ~level ~seed:seed_buf ~pos:seed_pos ~t)
    else begin
      let children = bufs.(l) in
      let bits = expand_node k sc ~level:l ~seed:seed_buf ~seed_pos ~t ~children in
      go (l + 1) children 0 (2 * prefix) (bits land 1);
      go (l + 1) children 16 ((2 * prefix) + 1) (bits lsr 1)
    end
  in
  go 0 (Bytes.copy k.root_seed) 0 0 k.root_t
