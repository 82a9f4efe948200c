open Lw_oram

let rng () = Lw_crypto.Drbg.create ~seed:"oram-tests"

(* ---------------- Path ORAM ---------------- *)

let test_write_read_roundtrip () =
  let o = Path_oram.create ~capacity:64 ~block_size:32 (rng ()) in
  for i = 0 to 63 do
    Path_oram.write o i (Printf.sprintf "block-%d" i)
  done;
  for i = 0 to 63 do
    match Path_oram.read o i with
    | Some v ->
        Alcotest.(check string) (Printf.sprintf "block %d" i)
          (Printf.sprintf "block-%d" i)
          (String.sub v 0 (String.length (Printf.sprintf "block-%d" i)))
    | None -> Alcotest.fail (Printf.sprintf "lost block %d" i)
  done

let test_unwritten_reads_none () =
  let o = Path_oram.create ~capacity:16 ~block_size:16 (rng ()) in
  Alcotest.(check (option string)) "never written" None (Path_oram.read o 5);
  Path_oram.write o 5 "x";
  Alcotest.(check bool) "now present" true (Path_oram.read o 5 <> None);
  Alcotest.(check (option string)) "others still absent" None (Path_oram.read o 6)

let test_overwrite () =
  let o = Path_oram.create ~capacity:8 ~block_size:16 (rng ()) in
  Path_oram.write o 3 "first";
  Path_oram.write o 3 "second";
  match Path_oram.read o 3 with
  | Some v -> Alcotest.(check string) "latest wins" "second" (String.sub v 0 6)
  | None -> Alcotest.fail "lost"

let test_repeated_churn_no_loss () =
  (* many re-reads and overwrites at ~full load; stash must not drop data *)
  let n = 128 in
  let o = Path_oram.create ~capacity:n ~block_size:24 (rng ()) in
  let reference = Array.make n "" in
  let det = Lw_util.Det_rng.of_string_seed "churn" in
  for i = 0 to n - 1 do
    let v = Printf.sprintf "v0-%d" i in
    reference.(i) <- v;
    Path_oram.write o i v
  done;
  for round = 1 to 2000 do
    let i = Lw_util.Det_rng.int det n in
    if Lw_util.Det_rng.int det 2 = 1 then begin
      let v = Printf.sprintf "v%d-%d" round i in
      reference.(i) <- v;
      Path_oram.write o i v
    end
    else begin
      match Path_oram.read o i with
      | Some v ->
          Alcotest.(check string) (Printf.sprintf "round %d block %d" round i) reference.(i)
            (String.sub v 0 (String.length reference.(i)))
      | None -> Alcotest.fail (Printf.sprintf "lost block %d at round %d" i round)
    end
  done

let test_stash_stays_bounded () =
  let n = 256 in
  let o = Path_oram.create ~capacity:n ~block_size:16 (rng ()) in
  let det = Lw_util.Det_rng.of_string_seed "stash" in
  let max_stash = ref 0 in
  for i = 0 to n - 1 do
    Path_oram.write o i "x"
  done;
  for _ = 1 to 3000 do
    ignore (Path_oram.read o (Lw_util.Det_rng.int det n));
    max_stash := max !max_stash (Path_oram.stash_size o)
  done;
  (* Path ORAM with Z=4 keeps the stash tiny w.h.p.; 60 is a generous bound *)
  Alcotest.(check bool) (Printf.sprintf "max stash %d" !max_stash) true (!max_stash < 60)

let test_validation () =
  let o = Path_oram.create ~capacity:4 ~block_size:8 (rng ()) in
  Alcotest.check_raises "id range" (Invalid_argument "Path_oram: block id out of range")
    (fun () -> ignore (Path_oram.read o 4));
  Alcotest.check_raises "data size" (Invalid_argument "Path_oram.write: data exceeds block")
    (fun () -> Path_oram.write o 0 (String.make 9 'x'));
  Alcotest.check_raises "capacity" (Invalid_argument "Path_oram.create: capacity must be positive")
    (fun () -> ignore (Path_oram.create ~capacity:0 ~block_size:8 (rng ())))

let test_geometry () =
  let o = Path_oram.create ~capacity:100 ~block_size:8 (rng ()) in
  Alcotest.(check int) "height for 100" 7 (Path_oram.tree_height o);
  let o2 = Path_oram.create ~capacity:1 ~block_size:8 (rng ()) in
  Alcotest.(check int) "min height" 1 (Path_oram.tree_height o2)

(* ---------------- obliviousness ---------------- *)

let leaf_count o = 1 lsl Path_oram.tree_height o

let test_trace_length_depends_only_on_ops () =
  let run ids =
    let o = Path_oram.create ~capacity:32 ~block_size:16 (rng ()) in
    for i = 0 to 31 do
      Path_oram.write o i "x"
    done;
    Path_oram.clear_access_log o;
    List.iter (fun i -> ignore (Path_oram.read o i)) ids;
    Path_oram.access_log o
  in
  let t1 = run [ 0; 0; 0; 0; 0 ] in
  let t2 = run [ 1; 7; 13; 21; 31 ] in
  Alcotest.(check int) "same length" (List.length t1) (List.length t2);
  Alcotest.(check int) "one leaf per op" 5 (List.length t1)

let test_trace_uniform_leaves () =
  (* repeatedly reading one block yields near-uniform leaves: the access
     pattern cannot identify a hot block *)
  let o = Path_oram.create ~capacity:64 ~block_size:16 (rng ()) in
  for i = 0 to 63 do
    Path_oram.write o i "x"
  done;
  Path_oram.clear_access_log o;
  let reads = 4096 in
  for _ = 1 to reads do
    ignore (Path_oram.read o 17)
  done;
  let leaves = Path_oram.access_log o in
  let n_leaves = leaf_count o in
  let counts = Array.make n_leaves 0 in
  List.iter (fun l -> counts.(l) <- counts.(l) + 1) leaves;
  let expected = float_of_int reads /. float_of_int n_leaves in
  (* chi-square-ish sanity: every leaf within 4x of expectation and none
     starved (expected = 64 per leaf here) *)
  Array.iteri
    (fun l c ->
      Alcotest.(check bool)
        (Printf.sprintf "leaf %d count %d" l c)
        true
        (float_of_int c > expected /. 4. && float_of_int c < expected *. 4.))
    counts

let test_trace_fresh_leaf_per_access () =
  (* consecutive accesses to the same block must not repeat the same leaf
     (beyond chance): count immediate repeats over many accesses *)
  let o = Path_oram.create ~capacity:128 ~block_size:16 (rng ()) in
  Path_oram.write o 5 "x";
  Path_oram.clear_access_log o;
  for _ = 1 to 2000 do
    ignore (Path_oram.read o 5)
  done;
  let leaves = Array.of_list (Path_oram.access_log o) in
  let repeats = ref 0 in
  for i = 1 to Array.length leaves - 1 do
    if leaves.(i) = leaves.(i - 1) then incr repeats
  done;
  (* with 128 leaves, expected repeats ~ 2000/128 = 15.6 *)
  Alcotest.(check bool) (Printf.sprintf "repeats %d" !repeats) true (!repeats < 60)

let test_trace_distribution_independent_of_workload () =
  (* Kolmogorov-style check: leaf histograms for two very different
     workloads look alike *)
  let histogram ids =
    let o = Path_oram.create ~capacity:64 ~block_size:16 (rng ()) in
    for i = 0 to 63 do
      Path_oram.write o i "x"
    done;
    Path_oram.clear_access_log o;
    List.iter (fun i -> ignore (Path_oram.read o i)) ids;
    let counts = Array.make (leaf_count o) 0 in
    List.iter (fun l -> counts.(l) <- counts.(l) + 1) (Path_oram.access_log o);
    counts
  in
  let det = Lw_util.Det_rng.of_string_seed "wl" in
  let same_block = List.init 2048 (fun _ -> 42) in
  let uniform = List.init 2048 (fun _ -> Lw_util.Det_rng.int det 64) in
  let h1 = histogram same_block and h2 = histogram uniform in
  let l1 = Array.fold_left (fun acc c -> acc +. ((float_of_int c -. 32.) ** 2.)) 0. h1 in
  let l2 = Array.fold_left (fun acc c -> acc +. ((float_of_int c -. 32.) ** 2.)) 0. h2 in
  (* both chi-square statistics should be in the same (uniform) regime *)
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %0.1f vs %0.1f" l1 l2)
    true
    (l1 /. l2 < 3. && l2 /. l1 < 3.)

(* ---------------- Enclave ---------------- *)

let test_enclave_put_get () =
  let e = Enclave.create ~capacity:32 ~value_size:256 () in
  Alcotest.(check bool) "put" true (Enclave.put e ~key:"a.com/x" ~value:"vx" = Ok ());
  Alcotest.(check bool) "put2" true (Enclave.put e ~key:"b.com/y" ~value:"vy" = Ok ());
  Alcotest.(check (option string)) "get" (Some "vx") (Enclave.get e "a.com/x");
  Alcotest.(check (option string)) "get2" (Some "vy") (Enclave.get e "b.com/y");
  Alcotest.(check (option string)) "miss" None (Enclave.get e "c.com/z")

let test_enclave_update_remove () =
  let e = Enclave.create ~capacity:8 ~value_size:64 () in
  ignore (Enclave.put e ~key:"k" ~value:"v1");
  ignore (Enclave.put e ~key:"k" ~value:"v2");
  Alcotest.(check (option string)) "update" (Some "v2") (Enclave.get e "k");
  Alcotest.(check bool) "remove" true (Enclave.remove e "k");
  Alcotest.(check (option string)) "gone" None (Enclave.get e "k");
  Alcotest.(check bool) "remove again" false (Enclave.remove e "k")

let test_enclave_full () =
  let e = Enclave.create ~capacity:4 ~value_size:16 () in
  for i = 0 to 3 do
    Alcotest.(check bool) "fits" true (Enclave.put e ~key:(Printf.sprintf "k%d" i) ~value:"v" = Ok ())
  done;
  Alcotest.(check bool) "full" true (Enclave.put e ~key:"k4" ~value:"v" = Error `Full);
  (* freeing a slot re-admits *)
  ignore (Enclave.remove e "k0");
  Alcotest.(check bool) "readmit" true (Enclave.put e ~key:"k4" ~value:"v" = Ok ())

let test_enclave_too_large () =
  let e = Enclave.create ~capacity:4 ~value_size:8 () in
  Alcotest.(check bool) "value too large" true
    (Enclave.put e ~key:"k" ~value:(String.make 9 'v') = Error `Too_large);
  Alcotest.(check bool) "key too large" true
    (Enclave.put e ~key:(String.make 300 'k') ~value:"v" = Error `Too_large)

let test_enclave_miss_indistinguishable () =
  (* hits and misses both cost exactly one path access *)
  let e = Enclave.create ~capacity:32 ~value_size:64 () in
  ignore (Enclave.put e ~key:"present" ~value:"v");
  Enclave.clear_trace e;
  ignore (Enclave.get e "present");
  let after_hit = List.length (Enclave.observed_trace e) in
  ignore (Enclave.get e "absolutely-not-present");
  let after_miss = List.length (Enclave.observed_trace e) in
  Alcotest.(check int) "hit = 1 path" 1 after_hit;
  Alcotest.(check int) "miss = 1 more path" 2 after_miss

let test_enclave_trace_shape_input_independent () =
  let trace keys =
    let e = Enclave.create ~capacity:16 ~value_size:32 () in
    for i = 0 to 9 do
      ignore (Enclave.put e ~key:(Printf.sprintf "k%d" i) ~value:"v")
    done;
    Enclave.clear_trace e;
    List.iter (fun k -> ignore (Enclave.get e k)) keys;
    Enclave.observed_trace e
  in
  let t1 = trace [ "k1"; "k1"; "k1" ] in
  let t2 = trace [ "k2"; "k9"; "missing" ] in
  Alcotest.(check int) "same #paths" (List.length t1) (List.length t2)

let test_enclave_polylog_cost () =
  let small = Enclave.create ~capacity:16 ~value_size:8 () in
  let big = Enclave.create ~capacity:4096 ~value_size:8 () in
  let c_small = Enclave.accesses_per_get small in
  let c_big = Enclave.accesses_per_get big in
  Alcotest.(check int) "16 -> height 4 + 1" 5 c_small;
  Alcotest.(check int) "4096 -> height 12 + 1" 13 c_big;
  (* 256x the data, 2.6x the cost: that is the E8 story *)
  Alcotest.(check bool) "polylog growth" true (c_big < 3 * c_small)

(* ---------------- properties ---------------- *)

let prop_oram_consistency =
  QCheck.Test.make ~name:"oram behaves like an array under random ops" ~count:15
    QCheck.(list_of_size Gen.(10 -- 120) (pair (int_range 0 15) (string_of_size Gen.(0 -- 10))))
    (fun ops ->
      let o = Path_oram.create ~capacity:16 ~block_size:16 (rng ()) in
      let model = Array.make 16 None in
      List.for_all
        (fun (i, v) ->
          if String.length v mod 2 = 0 then begin
            Path_oram.write o i v;
            model.(i) <- Some v;
            true
          end
          else begin
            match (Path_oram.read o i, model.(i)) with
            | None, None -> true
            | Some got, Some want -> String.sub got 0 (String.length want) = want
            | Some _, None | None, Some _ -> false
          end)
        ops)

let prop_enclave_model =
  QCheck.Test.make ~name:"enclave behaves like a map" ~count:15
    QCheck.(list_of_size Gen.(5 -- 60) (pair (int_range 0 9) (string_of_size Gen.(1 -- 8))))
    (fun ops ->
      let e = Enclave.create ~capacity:16 ~value_size:32 () in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun (ki, v) ->
          let key = Printf.sprintf "key-%d" ki in
          if String.length v mod 2 = 0 then begin
            match Enclave.put e ~key ~value:v with
            | Ok () ->
                Hashtbl.replace model key v;
                true
            | Error _ -> false
          end
          else Enclave.get e key = Hashtbl.find_opt model key)
        ops)

let props = List.map QCheck_alcotest.to_alcotest [ prop_oram_consistency; prop_enclave_model ]

let () =
  Alcotest.run "lw_oram"
    [
      ( "path_oram",
        [
          Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "unwritten is none" `Quick test_unwritten_reads_none;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "churn no loss" `Slow test_repeated_churn_no_loss;
          Alcotest.test_case "stash bounded" `Slow test_stash_stays_bounded;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "geometry" `Quick test_geometry;
        ] );
      ( "obliviousness",
        [
          Alcotest.test_case "trace length" `Quick test_trace_length_depends_only_on_ops;
          Alcotest.test_case "uniform leaves" `Slow test_trace_uniform_leaves;
          Alcotest.test_case "fresh leaf per access" `Quick test_trace_fresh_leaf_per_access;
          Alcotest.test_case "workload independence" `Slow test_trace_distribution_independent_of_workload;
        ] );
      ( "enclave",
        [
          Alcotest.test_case "put/get" `Quick test_enclave_put_get;
          Alcotest.test_case "update/remove" `Quick test_enclave_update_remove;
          Alcotest.test_case "capacity" `Quick test_enclave_full;
          Alcotest.test_case "size limits" `Quick test_enclave_too_large;
          Alcotest.test_case "miss indistinguishable" `Quick test_enclave_miss_indistinguishable;
          Alcotest.test_case "trace input-independent" `Quick test_enclave_trace_shape_input_independent;
          Alcotest.test_case "polylog cost" `Quick test_enclave_polylog_cost;
        ] );
      ("properties", props);
    ]
