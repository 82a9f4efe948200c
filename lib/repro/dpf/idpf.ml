module Prg = Lw_dpf.Prg

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

(* interpret 8 pseudorandom bytes of the seed's conversion as an int64 *)
let conv_int s =
  let bytes = Prg.convert ~seed:s ~pos:0 ~len:8 in
  String.get_int64_le bytes 0

(* The client's secrets: the point [alpha] (each of its bits), both
   parties' seeds on its path and the keep/lose masks splatted from a
   bit. As in [Dpf], they are data for the PRG and masks, never a table
   index or a branch condition. *)
(* lw-lint: secret alpha alpha_bit s0 s1 root0 root1 keep lose *)

let gen ~domain_bits ~alpha ~values rng =
  if domain_bits < 1 || domain_bits > 30 then invalid_arg "Idpf.gen: domain_bits out of range";
  (* domain bound check: public bounds, rejected before any use *)
  if alpha < 0 || alpha >= 1 lsl domain_bits then (* lw-lint: allow taint *)
    invalid_arg "Idpf.gen: alpha out of domain";
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
    (* keep = the child alpha descends into; lose = the other. As in
       [Dpf.gen], both halves of each expansion are read and combined
       under a mask splatted from the secret bit, so neither the offsets
       read nor the instructions run follow it. *)
    let keep = (0 - alpha_bit) land 0xff in
    let lose = lnot keep land 0xff in
    (* byte [i] of the right half of the expansion at [c_pos] under
       [mask], else of its left half *)
    let half c_pos i mask =
      (Char.code (Bytes.get c (c_pos + i)) land lnot mask)
      lor (Char.code (Bytes.get c (c_pos + 16 + i)) land mask)
    in
    for i = 0 to 15 do
      Bytes.set cw_seeds ((16 * level) + i)
        (Char.unsafe_chr (half 0 i lose lxor half 32 i lose))
    done;
    let tl_cw = tl0 lxor tl1 lxor alpha_bit lxor 1 in
    let tr_cw = tr0 lxor tr1 lxor alpha_bit in
    Bytes.set cw_bits level (Char.chr (tl_cw lor (tr_cw lsl 1)));
    let pick a b = ((1 - alpha_bit) * a) + (alpha_bit * b) in
    let tkeep_cw = pick tl_cw tr_cw in
    let step s c_pos t tkeep =
      for i = 0 to 15 do
        Bytes.set s i (Char.unsafe_chr (half c_pos i keep))
      done;
      Lw_util.Xorbuf.xor_into_masked ~mask:((0 - t) land 0xff) ~src:cw_seeds
        ~src_pos:(16 * level) ~dst:s ~dst_pos:0 ~len:16;
      tkeep lxor (t land tkeep_cw)
    in
    let t0' = step s0 0 !t0 (pick tl0 tr0) in
    let t1' = step s1 32 !t1 (pick tl1 tr1) in
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
    (* negated under a mask of all ones when t1 = 1 *)
    let neg = Int64.of_int (0 - !t1) in
    cw_counts.(level) <- Int64.sub (Int64.logxor ci neg) neg
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
  let share = Bytes.of_string (Prg.convert ~seed ~pos ~len) in
  (* the correction goes in under a mask splatted from [t] *)
  Lw_util.Xorbuf.xor_into_masked ~mask:((0 - t) land 0xff)
    ~src:(Bytes.unsafe_of_string k.cw_values.(level - 1)) ~src_pos:0 ~dst:share ~dst_pos:0 ~len;
  Bytes.unsafe_to_string share

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
  let v = Int64.add base (Int64.logand k.cw_counts.(level - 1) (Int64.of_int (0 - t))) in
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
