(* Constant-time primitives. Nothing in this module may branch on, or
   index by, the values it protects. lw-lint enforces that mechanically:
   the flags below mark the sensitive parameters, and the ct-equality
   rule and the taint analysis fail the build on any (=), if/match or
   index over them. *)
(* lw-lint: secret cond bit mask *)

let equal a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       for i = 0 to String.length a - 1 do
         acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
       done;
       !acc = 0
     end

(* 0x00 for bit = 0, 0xff for bit = 1, derived arithmetically: two's
   complement negation of the low bit smears it across the byte. *)
let mask_of_bit bit = (0 - (bit land 1)) land 0xff

let select_int bit a b =
  if String.length a <> String.length b then invalid_arg "Ct.select_int: length mismatch";
  let mask = mask_of_bit bit in
  String.init (String.length a) (fun i ->
      Char.chr
        ((Char.code a.[i] land mask) lor (Char.code b.[i] land (lnot mask land 0xff))))
