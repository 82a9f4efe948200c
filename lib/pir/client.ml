type query = { index : int; key0 : Lw_dpf.Dpf.key; key1 : Lw_dpf.Dpf.key }

let query_index ~domain_bits ~index rng =
  let key0, key1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha:index rng in
  { index; key0; key1 }

let query_key ~keymap ~key rng =
  query_index ~domain_bits:(Keymap.domain_bits keymap)
    ~index:(Keymap.index_of_key keymap key) rng

let combine ~resp0 ~resp1 = Lw_util.Xorbuf.xor resp0 resp1

let fetch _q ~resp0 ~resp1 ~key = Record.decode_for_key ~key (combine ~resp0 ~resp1)

let upload_bytes q =
  String.length (Lw_dpf.Dpf.serialize q.key0) + String.length (Lw_dpf.Dpf.serialize q.key1)
