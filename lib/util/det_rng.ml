type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let of_string_seed s =
  (* FNV-1a folded to 64 bits; deterministic across runs. *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  create !h

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let int t bound =
  if bound <= 0 then invalid_arg "Det_rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits avoids modulo bias. *)
  let mask = max_int in
  let rec go () =
    let r = Int64.to_int (next_int64 t) land mask in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then go () else v
  in
  go ()

let float t bound =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bytes t n =
  let out = Bytes.create n in
  let words = n / 8 in
  for i = 0 to words - 1 do
    Bytes.set_int64_le out (8 * i) (next_int64 t)
  done;
  if n mod 8 <> 0 then begin
    let last = next_int64 t in
    for i = 8 * words to n - 1 do
      let shift = 8 * (i - (8 * words)) in
      Bytes.set out i (Char.chr (Int64.to_int (Int64.shift_right_logical last shift) land 0xff))
    done
  end;
  Bytes.unsafe_to_string out
