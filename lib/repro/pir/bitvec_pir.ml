type query = { q0 : Bytes.t; q1 : Bytes.t }

let upload_bytes ~domain_bits = ((1 lsl domain_bits) + 7) / 8

let query ~domain_bits ~index rng =
  if domain_bits < 1 || domain_bits > 26 then invalid_arg "Bitvec_pir.query: bad domain";
  if index < 0 || index >= 1 lsl domain_bits then invalid_arg "Bitvec_pir.query: index out of domain";
  let n_bytes = upload_bytes ~domain_bits in
  let q0 = Bytes.of_string (Lw_crypto.Drbg.generate rng n_bytes) in
  let q1 = Bytes.copy q0 in
  let byte = index / 8 and bit = index mod 8 in
  Bytes.set q1 byte (Char.chr (Char.code (Bytes.get q1 byte) lxor (1 lsl bit)));
  { q0; q1 }

let answer snap packed =
  let n = Lw_store.Snapshot.size snap in
  if Bytes.length packed < (n + 7) / 8 then invalid_arg "Bitvec_pir.answer: vector too short";
  let acc = Bytes.make (Lw_store.Snapshot.bucket_size snap) '\x00' in
  for i = 0 to n - 1 do
    if Char.code (Bytes.unsafe_get packed (i / 8)) lsr (i mod 8) land 1 = 1 then
      Lw_store.Snapshot.xor_bucket_into_masked snap i ~mask:0xff ~dst:acc
  done;
  Bytes.unsafe_to_string acc
