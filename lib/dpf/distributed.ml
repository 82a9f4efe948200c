let split k ~shard_bits =
  let d = Dpf.domain_bits k in
  if shard_bits <= 0 || shard_bits >= d then invalid_arg "Distributed.split: bad shard_bits";
  let shards = Array.make (1 lsl shard_bits) None in
  Dpf.eval_prefixes k ~levels:shard_bits (fun prefix t seed_buf pos ->
      shards.(prefix) <-
        Some (Dpf.make_subkey k ~prefix ~root_seed:seed_buf ~root_pos:pos ~root_t:t ~levels:shard_bits));
  Array.map
    (function
      | Some sub -> sub
      | None -> assert false (* eval_prefixes visits every prefix *))
    shards
