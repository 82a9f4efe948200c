type t = { hash_key : string; domain_bits : int }

let create ~hash_key ~domain_bits =
  if String.length hash_key <> 16 then invalid_arg "Keymap.create: hash_key must be 16 bytes";
  if domain_bits < 1 || domain_bits > 62 then invalid_arg "Keymap.create: domain_bits out of range";
  { hash_key; domain_bits }

let index_of_key t key =
  Lw_crypto.Siphash.to_domain ~key:t.hash_key ~domain_bits:t.domain_bits key

let derive t ~salt =
  let h = Lw_crypto.Sha256.digest (Printf.sprintf "keymap-derive/%d/%s" salt t.hash_key) in
  { t with hash_key = String.sub h 0 16 }

let new_key_collision_probability ~n_keys ~domain_bits =
  float_of_int n_keys /. float_of_int (1 lsl domain_bits)

let expected_collisions ~n_keys ~domain_bits =
  let n = float_of_int n_keys in
  n *. (n -. 1.) /. (2. *. float_of_int (1 lsl domain_bits))

let any_collision_probability ~n_keys ~domain_bits =
  1. -. exp (-.expected_collisions ~n_keys ~domain_bits)

let monte_carlo_new_key_collision t ~n_keys ~trials rng =
  if trials <= 0 then invalid_arg "Keymap.monte_carlo: trials must be positive";
  let occupied = Hashtbl.create n_keys in
  let fresh_index () =
    index_of_key t (Lw_util.Det_rng.bytes rng 12)
  in
  for _ = 1 to n_keys do
    Hashtbl.replace occupied (fresh_index ()) ()
  done;
  let hits = ref 0 in
  for _ = 1 to trials do
    if Hashtbl.mem occupied (fresh_index ()) then incr hits
  done;
  float_of_int !hits /. float_of_int trials
