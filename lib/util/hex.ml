let hex_digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (b lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (b land 0xf))
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: non-hex character"

let decode h =
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd-length input";
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = nibble h.[2 * i] and lo = nibble h.[(2 * i) + 1] in
    Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string out

let decode_opt h = try Some (decode h) with Invalid_argument _ -> None
