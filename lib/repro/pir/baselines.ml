let trivial_fetch snap i =
  let bucket = Lw_store.Snapshot.bucket_size snap in
  let out = Bytes.create bucket in
  let acc = Bytes.make bucket '\x00' in
  for j = 0 to Lw_store.Snapshot.size snap - 1 do
    (* the client receives every bucket; we model the transfer by touching
       each one *)
    Lw_store.Snapshot.xor_bucket_into_masked snap j ~mask:0xff ~dst:acc;
    if j = i then Bytes.blit_string (Lw_store.Snapshot.get snap j) 0 out 0 bucket
  done;
  Bytes.unsafe_to_string out
