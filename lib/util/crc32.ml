(* Standard reflected CRC-32 (IEEE 802.3 polynomial 0xEDB88320), slice by
   eight on immediate ints: eight table lookups per eight input bytes, and
   no boxed [Int32] on the way. Not a cryptographic primitive: it
   guarantees detection of any single-bit error and all short burst
   errors, which is exactly the failure class an integrity trailer on a
   simulated lossy link must catch deterministically. *)

let poly = 0xEDB88320

(* [tables.((k * 256) + b)] is the CRC register after byte [b] and then
   [k] zero bytes, for [k] from 0 to 7. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := (!c lsr 1) lxor (poly land -(!c land 1))
    done;
    t.(b) <- !c
  done;
  for k = 1 to 7 do
    for b = 0 to 255 do
      let prev = t.(((k - 1) * 256) + b) in
      t.((k * 256) + b) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let[@inline] tab k b = Array.unsafe_get tables ((k * 256) + b)

let update crc s ~pos ~len =
  (* [pos > length - len] rather than [pos + len > length]: the sum can
     wrap for huge [len], and the byte loop below reads unchecked *)
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (lnot (Int32.to_int crc) land 0xffffffff) in
  let words = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < words do
    let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xffffffff) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xffffffff in
    c :=
      tab 7 (lo land 0xff)
      lxor tab 6 ((lo lsr 8) land 0xff)
      lxor tab 5 ((lo lsr 16) land 0xff)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (hi land 0xff)
      lxor tab 2 ((hi lsr 8) land 0xff)
      lxor tab 1 ((hi lsr 16) land 0xff)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = words to pos + len - 1 do
    c := tab 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land 0xffffffff)

let digest s = update 0l s ~pos:0 ~len:(String.length s)
