type contribution = { key0 : Idpf.key; key1 : Idpf.key }

let contribute ~domain_bits ~alpha rng =
  let values = Array.make domain_bits "\x01" in
  let key0, key1 = Idpf.gen ~domain_bits ~alpha ~values rng in
  { key0; key1 }

type hitter = { prefix : int; level : int; count : int64 }

let server_sum ~party ~level ~prefix contributions =
  List.fold_left
    (fun acc c ->
      let k = if party = 0 then c.key0 else c.key1 in
      Int64.add acc (Idpf.eval_prefix_count k ~level prefix))
    0L contributions

let combined_count ~level ~prefix contributions =
  Int64.add
    (server_sum ~party:0 ~level ~prefix contributions)
    (server_sum ~party:1 ~level ~prefix contributions)

let collect ~domain_bits ~threshold contributions =
  if domain_bits < 1 then invalid_arg "Heavy_hitters.collect: bad domain";
  if Int64.compare threshold 1L < 0 then invalid_arg "Heavy_hitters.collect: threshold < 1";
  (* level-by-level descent: only children of surviving prefixes are
     counted, so a non-heavy subtree is abandoned after one probe *)
  let rec descend level candidates acc =
    if level > domain_bits || candidates = [] then List.rev acc
    else begin
      let survivors =
        List.filter_map
          (fun prefix ->
            let count = combined_count ~level ~prefix contributions in
            if Int64.compare count threshold >= 0 then Some { prefix; level; count } else None)
          candidates
      in
      let next = List.concat_map (fun h -> [ 2 * h.prefix; (2 * h.prefix) + 1 ]) survivors in
      descend (level + 1) next (List.rev_append survivors acc)
    end
  in
  descend 1 [ 0; 1 ] []

let leaves ~domain_bits hitters = List.filter (fun h -> h.level = domain_bits) hitters
