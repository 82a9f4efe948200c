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

let direct_fetch snap i = Lw_store.Snapshot.get snap i

module Cost = struct
  type scheme = Two_server_pir | Trivial_pir | Direct

  type t = {
    scheme : scheme;
    upload_bytes : int;
    download_bytes : int;
    server_buckets_touched : int;
    leaks_index : bool;
  }

  let scheme_name = function
    | Two_server_pir -> "two-server PIR"
    | Trivial_pir -> "trivial PIR (download all)"
    | Direct -> "direct GET (no privacy)"

  let of_scheme scheme ~domain_bits ~bucket_size =
    let n = 1 lsl domain_bits in
    match scheme with
    | Two_server_pir ->
        {
          scheme;
          upload_bytes = 2 * Lw_dpf.Dpf.serialized_size ~domain_bits;
          download_bytes = 2 * bucket_size;
          server_buckets_touched = 2 * n;
          leaks_index = false;
        }
    | Trivial_pir ->
        {
          scheme;
          upload_bytes = 0;
          download_bytes = n * bucket_size;
          server_buckets_touched = n;
          leaks_index = false;
        }
    | Direct ->
        {
          scheme;
          upload_bytes = 8;
          download_bytes = bucket_size;
          server_buckets_touched = 1;
          leaks_index = true;
        }
end
