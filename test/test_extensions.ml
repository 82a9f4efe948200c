(* Tests for the extension components: the bit-vector PIR baseline,
   incremental DPFs, the recursive-position-map ORAM, constant-rate cover
   traffic, and blob pagination. *)

open Lightweb
module Json = Lw_json.Json

let rng () = Lw_crypto.Drbg.create ~seed:"extensions"
let det = Lw_util.Det_rng.of_string_seed

(* ---------------- Bitvec_pir ---------------- *)

(* One sealed epoch of pseudorandom buckets. *)
let random_snapshot ~domain_bits ~bucket_size seed =
  let st = Lw_store.create ~domain_bits ~bucket_size () in
  let w = Lw_store.writer st in
  Lw_store.Writer.fill_random w (det seed);
  Lw_store.Writer.seal w

let test_bitvec_correctness () =
  let snap = random_snapshot ~domain_bits:7 ~bucket_size:64 "bv" in
  for index = 0 to 127 do
    Alcotest.(check string)
      (Printf.sprintf "bucket %d" index)
      (Lw_store.Snapshot.get snap index)
      (Lw_pir.Bitvec_pir.fetch snap ~index (rng ()))
  done

let test_bitvec_query_shape () =
  let q = Lw_pir.Bitvec_pir.query ~domain_bits:10 ~index:511 (rng ()) in
  Alcotest.(check int) "vector bytes" 128 (Bytes.length q.Lw_pir.Bitvec_pir.q0);
  (* the two vectors differ in exactly one bit: the target index *)
  let diff = ref [] in
  for i = 0 to 1023 do
    let bit b = Char.code (Bytes.get b (i / 8)) lsr (i mod 8) land 1 in
    if bit q.Lw_pir.Bitvec_pir.q0 <> bit q.Lw_pir.Bitvec_pir.q1 then diff := i :: !diff
  done;
  Alcotest.(check (list int)) "single differing bit" [ 511 ] !diff

let test_bitvec_upload_vs_dpf () =
  (* the whole point: DPF upload is logarithmic, bit vectors linear *)
  let bv22 = Lw_pir.Bitvec_pir.upload_bytes ~domain_bits:22 in
  let dpf22 = Lw_dpf.Dpf.serialized_size ~domain_bits:22 ~value_len:0 in
  Alcotest.(check int) "bitvec at d=22 is 512 KiB" (512 * 1024) bv22;
  Alcotest.(check bool) "dpf is ~1000x smaller" true (bv22 / dpf22 > 1000)

let test_bitvec_single_view_random () =
  (* server 0's vector is uniform regardless of the index *)
  let weight index =
    let q = Lw_pir.Bitvec_pir.query ~domain_bits:12 ~index (rng ()) in
    let w = ref 0 in
    Bytes.iter (fun c -> w := !w + Lw_util.Bitops.popcount (Char.code c)) q.Lw_pir.Bitvec_pir.q0;
    !w
  in
  let w0 = weight 0 and w1 = weight 4095 in
  Alcotest.(check bool) "balanced" true (abs (w0 - 2048) < 200 && abs (w1 - 2048) < 200)

(* ---------------- Idpf ---------------- *)

let test_idpf_all_levels () =
  let d = 6 in
  let alpha = 0b101101 in
  let values = Array.init d (fun l -> Printf.sprintf "level-%d-value" (l + 1)) in
  let k0, k1 = Lw_dpf.Idpf.gen ~domain_bits:d ~alpha ~values (rng ()) in
  for level = 1 to d do
    let target_prefix = alpha lsr (d - level) in
    for p = 0 to (1 lsl level) - 1 do
      let got =
        Lw_util.Xorbuf.xor
          (Lw_dpf.Idpf.eval_prefix k0 ~level p)
          (Lw_dpf.Idpf.eval_prefix k1 ~level p)
      in
      if p = target_prefix then
        Alcotest.(check string) (Printf.sprintf "l%d p%d" level p) values.(level - 1) got
      else
        Alcotest.(check bool)
          (Printf.sprintf "l%d p%d zero" level p)
          true
          (Lw_util.Xorbuf.is_zero got)
    done
  done

let test_idpf_eval_all_level_matches_point () =
  let d = 5 and alpha = 19 in
  let values = Array.init d (fun l -> String.make (8 + l) 'x') in
  let k0, _ = Lw_dpf.Idpf.gen ~domain_bits:d ~alpha ~values (rng ()) in
  for level = 1 to d do
    let seen = ref 0 in
    Lw_dpf.Idpf.eval_all_level k0 ~level (fun p share ->
        Alcotest.(check int) "visit order" !seen p;
        incr seen;
        Alcotest.(check string)
          (Printf.sprintf "l%d p%d" level p)
          (Lw_dpf.Idpf.eval_prefix k0 ~level p)
          share);
    Alcotest.(check int) "full level" (1 lsl level) !seen
  done

let test_idpf_hierarchical_counting () =
  (* the billing use-case: one query contributes a 1 at every level of its
     path's hierarchy, privately *)
  let d = 4 in
  let one = "\x01" in
  let alpha = 0b1011 in
  let values = Array.make d one in
  let k0, k1 = Lw_dpf.Idpf.gen ~domain_bits:d ~alpha ~values (rng ()) in
  (* "count queries under prefix 10 (level 2)": servers evaluate the
     prefix and XOR; 1 iff the query falls under it *)
  let count level p =
    Char.code
      (Lw_util.Xorbuf.xor
         (Lw_dpf.Idpf.eval_prefix k0 ~level p)
         (Lw_dpf.Idpf.eval_prefix k1 ~level p)).[0]
  in
  Alcotest.(check int) "under 10" 1 (count 2 0b10);
  Alcotest.(check int) "not under 11" 0 (count 2 0b11);
  Alcotest.(check int) "under 1" 1 (count 1 0b1);
  Alcotest.(check int) "exact leaf" 1 (count 4 alpha)

let test_idpf_counting_shares () =
  let d = 5 and alpha = 22 in
  let values = Array.make d "\x01" in
  let k0, k1 = Lw_dpf.Idpf.gen ~domain_bits:d ~alpha ~values (rng ()) in
  for level = 1 to d do
    let target = alpha lsr (d - level) in
    for p = 0 to (1 lsl level) - 1 do
      let total =
        Int64.add
          (Lw_dpf.Idpf.eval_prefix_count k0 ~level p)
          (Lw_dpf.Idpf.eval_prefix_count k1 ~level p)
      in
      Alcotest.(check int64)
        (Printf.sprintf "l%d p%d" level p)
        (if p = target then 1L else 0L)
        total
    done
  done

let test_idpf_counts_sum_across_clients () =
  (* the additive property that XOR shares lack: many clients' shares for
     one prefix sum to the query count *)
  let d = 4 in
  let alphas = [ 0b1010; 0b1011; 0b1010; 0b0001; 0b1010 ] in
  let keys = List.map (fun alpha -> Lw_dpf.Idpf.gen ~domain_bits:d ~alpha ~values:(Array.make d "\x01") (rng ())) alphas in
  let total level p =
    List.fold_left
      (fun acc (k0, k1) ->
        Int64.add acc
          (Int64.add
             (Lw_dpf.Idpf.eval_prefix_count k0 ~level p)
             (Lw_dpf.Idpf.eval_prefix_count k1 ~level p)))
      0L keys
  in
  Alcotest.(check int64) "leaf 1010 x3" 3L (total 4 0b1010);
  Alcotest.(check int64) "prefix 101 x4" 4L (total 3 0b101);
  Alcotest.(check int64) "prefix 1 x4" 4L (total 1 0b1);
  Alcotest.(check int64) "prefix 0 x1" 1L (total 1 0b0);
  Alcotest.(check int64) "absent leaf" 0L (total 4 0b1111)

let test_idpf_eval_all_counts () =
  let d = 4 and alpha = 9 in
  let k0, _ = Lw_dpf.Idpf.gen ~domain_bits:d ~alpha ~values:(Array.make d "\x01") (rng ()) in
  for level = 1 to d do
    let n = ref 0 in
    Lw_dpf.Idpf.eval_all_level_counts k0 ~level (fun p share ->
        Alcotest.(check int64)
          (Printf.sprintf "l%d p%d matches point" level p)
          (Lw_dpf.Idpf.eval_prefix_count k0 ~level p)
          share;
        incr n);
    Alcotest.(check int) "all visited" (1 lsl level) !n
  done

let test_idpf_validation () =
  Alcotest.check_raises "wrong value count"
    (Invalid_argument "Idpf.gen: need one value per level") (fun () ->
      ignore (Lw_dpf.Idpf.gen ~domain_bits:3 ~alpha:0 ~values:[| "a" |] (rng ())));
  let values = Array.make 3 "v" in
  let k0, _ = Lw_dpf.Idpf.gen ~domain_bits:3 ~alpha:0 ~values (rng ()) in
  Alcotest.check_raises "level range" (Invalid_argument "Idpf.eval_prefix: level out of range")
    (fun () -> ignore (Lw_dpf.Idpf.eval_prefix k0 ~level:4 0));
  Alcotest.(check int) "value_len" 1 (Lw_dpf.Idpf.value_len k0 ~level:2)

(* ---------------- Recursive_oram ---------------- *)

let test_recursive_roundtrip () =
  let o = Lw_oram.Recursive_oram.create ~capacity:256 ~block_size:24 (rng ()) in
  Alcotest.(check bool) "actually recursive" true (Lw_oram.Recursive_oram.levels o >= 2);
  for i = 0 to 255 do
    Lw_oram.Recursive_oram.write o i (Printf.sprintf "rec-%d" i)
  done;
  for i = 0 to 255 do
    match Lw_oram.Recursive_oram.read o i with
    | Some v ->
        Alcotest.(check string) (Printf.sprintf "block %d" i) (Printf.sprintf "rec-%d" i)
          (String.sub v 0 (String.length (Printf.sprintf "rec-%d" i)))
    | None -> Alcotest.fail (Printf.sprintf "lost block %d" i)
  done

let test_recursive_unwritten () =
  let o = Lw_oram.Recursive_oram.create ~capacity:128 ~block_size:16 (rng ()) in
  Alcotest.(check (option string)) "absent" None (Lw_oram.Recursive_oram.read o 77);
  Lw_oram.Recursive_oram.write o 77 "x";
  Alcotest.(check bool) "present" true (Lw_oram.Recursive_oram.read o 77 <> None);
  Alcotest.(check (option string)) "neighbour absent" None (Lw_oram.Recursive_oram.read o 78)

let test_recursive_levels_geometry () =
  (* capacity 4096, pack 4, threshold 64: map ORAMs of 1024, 256 and 64
     blocks (the 256-block map still has > 64 entries to track, so it gets
     its own 64-block map whose 64 entries finally fit in private memory) *)
  let o =
    Lw_oram.Recursive_oram.create ~pack:4 ~top_threshold:64 ~capacity:4096 ~block_size:8 (rng ())
  in
  Alcotest.(check int) "levels" 4 (Lw_oram.Recursive_oram.levels o);
  Alcotest.(check int) "paths per access" 4 (Lw_oram.Recursive_oram.paths_per_access o);
  let small = Lw_oram.Recursive_oram.create ~capacity:32 ~block_size:8 (rng ()) in
  Alcotest.(check int) "small is flat" 1 (Lw_oram.Recursive_oram.levels small)

let test_recursive_churn () =
  let n = 64 in
  let o = Lw_oram.Recursive_oram.create ~top_threshold:8 ~capacity:n ~block_size:16 (rng ()) in
  Alcotest.(check bool) "deep" true (Lw_oram.Recursive_oram.levels o >= 3);
  let reference = Array.make n None in
  let r = det "rchurn" in
  for round = 1 to 800 do
    let i = Lw_util.Det_rng.int r n in
    if Lw_util.Det_rng.bool r then begin
      let v = Printf.sprintf "%d-%d" round i in
      reference.(i) <- Some v;
      Lw_oram.Recursive_oram.write o i v
    end
    else begin
      match (Lw_oram.Recursive_oram.read o i, reference.(i)) with
      | None, None -> ()
      | Some got, Some want ->
          Alcotest.(check string) (Printf.sprintf "round %d" round) want
            (String.sub got 0 (String.length want))
      | Some _, None -> Alcotest.fail "phantom block"
      | None, Some _ -> Alcotest.fail "lost block"
    end
  done;
  Alcotest.(check bool) "stash bounded" true (Lw_oram.Recursive_oram.total_stash o < 120)

let test_recursive_trace_shape () =
  let o = Lw_oram.Recursive_oram.create ~top_threshold:16 ~capacity:128 ~block_size:16 (rng ()) in
  for i = 0 to 127 do
    Lw_oram.Recursive_oram.write o i "x"
  done;
  Lw_oram.Recursive_oram.clear_access_log o;
  let k = 40 in
  for _ = 1 to k do
    ignore (Lw_oram.Recursive_oram.read o 5)
  done;
  let log_same = List.length (Lw_oram.Recursive_oram.access_log o) in
  Lw_oram.Recursive_oram.clear_access_log o;
  let r = det "rtrace" in
  for _ = 1 to k do
    ignore (Lw_oram.Recursive_oram.read o (Lw_util.Det_rng.int r 128))
  done;
  let log_mixed = List.length (Lw_oram.Recursive_oram.access_log o) in
  Alcotest.(check int) "trace length input-independent" log_same log_mixed;
  Alcotest.(check int) "paths per op" (k * Lw_oram.Recursive_oram.paths_per_access o) log_same

(* ---------------- Pacer ---------------- *)

let test_pacer_slot_count_input_independent () =
  let a = Pacer.pace ~slot_s:10. ~horizon_s:100. [] in
  let b = Pacer.pace ~slot_s:10. ~horizon_s:100. [ (0., "x"); (1., "y"); (95., "z") ] in
  Alcotest.(check int) "same slots" (List.length a) (List.length b);
  Alcotest.(check int) "ten slots" 10 (List.length a);
  (* and identical timing *)
  List.iter2
    (fun sa sb -> Alcotest.(check (float 1e-9)) "same times" sa.Pacer.time_s sb.Pacer.time_s)
    a b

let test_pacer_serves_fifo () =
  let visits = [ (12., "a"); (5., "b"); (31., "c") ] in
  let schedule = Pacer.pace ~slot_s:10. ~horizon_s:60. visits in
  let reals =
    List.filter_map
      (fun s -> match s.Pacer.action with Pacer.Real p -> Some (s.Pacer.time_s, p) | Pacer.Dummy -> None)
      schedule
  in
  (* b arrives at 5 -> slot 10; a at 12 -> slot 20; c at 31 -> slot 40 *)
  Alcotest.(check (list (pair (float 1e-9) string))) "fifo schedule"
    [ (10., "b"); (20., "a"); (40., "c") ]
    reals

let test_pacer_queue_drains () =
  (* burst of 4 requests all at t=0: served in 4 consecutive slots *)
  let visits = List.init 4 (fun i -> (0., Printf.sprintf "p%d" i)) in
  let schedule = Pacer.pace ~slot_s:5. ~horizon_s:40. visits in
  let reals = List.filter (fun s -> s.Pacer.action <> Pacer.Dummy) schedule in
  Alcotest.(check int) "all served" 4 (List.length reals);
  let st = Pacer.stats ~slot_s:5. visits schedule in
  Alcotest.(check int) "dummies fill the rest" 4 st.Pacer.dummies;
  Alcotest.(check (float 1e-9)) "max delay 15s (4th waits 3 slots)" 15. st.Pacer.max_delay_s

let test_pacer_stats_overhead () =
  let visits = [ (3., "only") ] in
  let schedule = Pacer.pace ~slot_s:1. ~horizon_s:100. visits in
  let st = Pacer.stats ~slot_s:1. visits schedule in
  Alcotest.(check int) "slots" 100 st.Pacer.slots;
  Alcotest.(check int) "real" 1 st.Pacer.real;
  Alcotest.(check int) "dummies" 99 st.Pacer.dummies;
  Alcotest.(check (float 1e-9)) "overhead" 99. st.Pacer.overhead;
  (* arrival at t=3 is admitted by the slot at exactly t=3: zero delay *)
  Alcotest.(check (float 1e-9)) "served same slot" 0. st.Pacer.max_delay_s

(* ---------------- Paginate ---------------- *)

let test_paginate_roundtrip () =
  let text = String.concat " " (List.init 300 (fun i -> Printf.sprintf "word%d" i)) in
  match Paginate.split ~capacity:256 ~suffix:"/long-article.json" ~text with
  | Error e -> Alcotest.fail e
  | Ok pages ->
      Alcotest.(check bool) "several pages" true (List.length pages > 3);
      (* every serialised value fits the capacity *)
      List.iter
        (fun (sfx, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s fits" sfx)
            true
            (String.length (Json.to_string v) <= 256))
        pages;
      (* chain reassembles exactly *)
      let fetch sfx = List.assoc_opt sfx pages in
      (match Paginate.reassemble fetch "/long-article.json" with
      | Ok whole -> Alcotest.(check string) "reassembled" text whole
      | Error e -> Alcotest.fail e);
      (* first page keeps the original suffix; last has no next *)
      let first = List.assoc "/long-article.json" pages in
      Alcotest.(check bool) "first has next" true (Paginate.next_suffix first <> None);
      let _, last = List.nth pages (List.length pages - 1) in
      Alcotest.(check (option string)) "last is terminal" None (Paginate.next_suffix last)

let test_paginate_short_text_single_page () =
  match Paginate.split ~capacity:256 ~suffix:"/s.json" ~text:"short" with
  | Ok [ (sfx, v) ] ->
      Alcotest.(check string) "suffix kept" "/s.json" sfx;
      Alcotest.(check string) "body" "short" (Paginate.body v);
      Alcotest.(check (option string)) "no next" None (Paginate.next_suffix v)
  | Ok _ -> Alcotest.fail "expected one page"
  | Error e -> Alcotest.fail e

let test_paginate_escaping_heavy_text () =
  (* text full of quotes/newlines doubles under JSON escaping *)
  let text = String.concat "" (List.init 200 (fun _ -> "\"\n\\")) in
  match Paginate.split ~capacity:128 ~suffix:"/esc.json" ~text with
  | Error e -> Alcotest.fail e
  | Ok pages ->
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "fits" true (String.length (Json.to_string v) <= 128))
        pages;
      let fetch sfx = List.assoc_opt sfx pages in
      (match Paginate.reassemble fetch "/esc.json" with
      | Ok whole -> Alcotest.(check string) "reassembled" text whole
      | Error e -> Alcotest.fail e)

let test_paginate_too_small () =
  Alcotest.(check bool) "tiny capacity fails" true
    (Result.is_error (Paginate.split ~capacity:10 ~suffix:"/x.json" ~text:"hello"))

let test_paginate_reassemble_detects_cycle () =
  let v next = Json.Obj [ ("body", Json.String "b"); ("next", Json.String next) ] in
  let fetch = function
    | "/a" -> Some (v "/b")
    | "/b" -> Some (v "/a")
    | _ -> None
  in
  Alcotest.(check bool) "cycle" true (Result.is_error (Paginate.reassemble fetch "/a"));
  Alcotest.(check bool) "missing" true (Result.is_error (Paginate.reassemble fetch "/zzz"))

let test_paginate_through_universe () =
  (* publish a long article as a chain and read it back through PIR *)
  let u = Universe.create ~name:"paged" Universe.default_geometry in
  ignore (Universe.claim_domain u ~publisher:"p" ~domain:"long.example");
  let text = String.concat " " (List.init 500 (fun i -> Printf.sprintf "tok%d" i)) in
  let pages =
    match Paginate.split ~capacity:800 ~suffix:"/article.json" ~text with
    | Ok ps -> ps
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (sfx, v) ->
      match Universe.push_data u ~publisher:"p" ~path:("long.example" ^ sfx) ~value:v with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    pages;
  let d0, d1 = Universe.data_servers u in
  let client =
    Result.get_ok
      (Zltp_client.connect ~rng:(rng ()) [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ])
  in
  let fetch sfx =
    match Zltp_client.get client ("long.example" ^ sfx) with
    | Ok (Some s) -> Json.of_string_opt s
    | Ok None | Error _ -> None
  in
  match Paginate.reassemble fetch "/article.json" with
  | Ok whole -> Alcotest.(check string) "private reassembly" text whole
  | Error e -> Alcotest.fail e

(* ---------------- properties ---------------- *)

let prop_bitvec_correct =
  QCheck.Test.make ~name:"bitvec pir correct for random shapes" ~count:25
    QCheck.(pair (int_range 1 8) (int_range 0 10000))
    (fun (d, i) ->
      let index = i mod (1 lsl d) in
      let snap = random_snapshot ~domain_bits:d ~bucket_size:32 (string_of_int (d + i)) in
      String.equal (Lw_store.Snapshot.get snap index) (Lw_pir.Bitvec_pir.fetch snap ~index (rng ())))

let prop_paginate_roundtrip =
  QCheck.Test.make ~name:"paginate split/reassemble" ~count:40
    QCheck.(pair (int_range 100 400) (string_of_size Gen.(0 -- 600)))
    (fun (capacity, text) ->
      match Paginate.split ~capacity ~suffix:"/p.json" ~text with
      | Error _ -> QCheck.assume_fail ()
      | Ok pages ->
          let fetch sfx = List.assoc_opt sfx pages in
          Paginate.reassemble fetch "/p.json" = Ok text
          && List.for_all (fun (_, v) -> String.length (Json.to_string v) <= capacity) pages)

let prop_pacer_slot_count =
  QCheck.Test.make ~name:"pacer slot count depends only on clock" ~count:40
    QCheck.(list_of_size Gen.(0 -- 30) (pair (float_bound_exclusive 200.) small_string))
    (fun visits ->
      let a = Pacer.pace ~slot_s:7. ~horizon_s:200. visits in
      let b = Pacer.pace ~slot_s:7. ~horizon_s:200. [] in
      List.length a = List.length b)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bitvec_correct; prop_paginate_roundtrip; prop_pacer_slot_count ]

let () =
  Alcotest.run "extensions"
    [
      ( "bitvec-pir",
        [
          Alcotest.test_case "correctness" `Quick test_bitvec_correctness;
          Alcotest.test_case "query shape" `Quick test_bitvec_query_shape;
          Alcotest.test_case "upload vs dpf" `Quick test_bitvec_upload_vs_dpf;
          Alcotest.test_case "single view random" `Quick test_bitvec_single_view_random;
        ] );
      ( "idpf",
        [
          Alcotest.test_case "all levels" `Quick test_idpf_all_levels;
          Alcotest.test_case "eval_all matches point" `Quick test_idpf_eval_all_level_matches_point;
          Alcotest.test_case "hierarchical counting" `Quick test_idpf_hierarchical_counting;
          Alcotest.test_case "counting shares" `Quick test_idpf_counting_shares;
          Alcotest.test_case "counts sum across clients" `Quick test_idpf_counts_sum_across_clients;
          Alcotest.test_case "eval_all counts" `Quick test_idpf_eval_all_counts;
          Alcotest.test_case "validation" `Quick test_idpf_validation;
        ] );
      ( "recursive-oram",
        [
          Alcotest.test_case "roundtrip" `Quick test_recursive_roundtrip;
          Alcotest.test_case "unwritten" `Quick test_recursive_unwritten;
          Alcotest.test_case "levels geometry" `Quick test_recursive_levels_geometry;
          Alcotest.test_case "churn" `Slow test_recursive_churn;
          Alcotest.test_case "trace shape" `Quick test_recursive_trace_shape;
        ] );
      ( "pacer",
        [
          Alcotest.test_case "slot count input-independent" `Quick test_pacer_slot_count_input_independent;
          Alcotest.test_case "fifo service" `Quick test_pacer_serves_fifo;
          Alcotest.test_case "queue drains" `Quick test_pacer_queue_drains;
          Alcotest.test_case "stats overhead" `Quick test_pacer_stats_overhead;
        ] );
      ( "paginate",
        [
          Alcotest.test_case "roundtrip" `Quick test_paginate_roundtrip;
          Alcotest.test_case "short text" `Quick test_paginate_short_text_single_page;
          Alcotest.test_case "escaping-heavy" `Quick test_paginate_escaping_heavy_text;
          Alcotest.test_case "too small" `Quick test_paginate_too_small;
          Alcotest.test_case "cycle detection" `Quick test_paginate_reassemble_detects_cycle;
          Alcotest.test_case "through the universe" `Quick test_paginate_through_universe;
        ] );
      ("properties", props);
    ]
