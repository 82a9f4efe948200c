
let rotl64 x k =
  if k = 0 then x
  else Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let log2_ceil n =
  if n < 1 then invalid_arg "Bitops.log2_ceil";
  let rec go d p = if p >= n then d else go (d + 1) (p * 2) in
  go 0 1

let bit_msb x ~width i = (x lsr (width - 1 - i)) land 1

let ceil_div a b =
  if b <= 0 || a < 0 then invalid_arg "Bitops.ceil_div";
  (a + b - 1) / b

let round_up n ~multiple = ceil_div n multiple * multiple
