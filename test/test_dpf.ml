open Lw_dpf

let rng () = Lw_crypto.Drbg.create ~seed:"dpf-tests"

(* ---------------- correctness: point evaluation ---------------- *)

let test_point_function_bits () =
  let d = 6 in
  let alpha = 37 in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
  for x = 0 to (1 lsl d) - 1 do
    let got = Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x in
    let want = if x = alpha then 1 else 0 in
    Alcotest.(check int) (Printf.sprintf "x=%d" x) want got
  done

let test_point_function_all_alphas () =
  let d = 4 in
  for alpha = 0 to (1 lsl d) - 1 do
    let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
    for x = 0 to (1 lsl d) - 1 do
      let got = Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x in
      Alcotest.(check int) (Printf.sprintf "a=%d x=%d" alpha x) (if x = alpha then 1 else 0) got
    done
  done

let test_domain_edges () =
  (* depth-1 tree and both extreme alphas *)
  List.iter
    (fun (d, alpha) ->
      let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
      for x = 0 to (1 lsl d) - 1 do
        Alcotest.(check int)
          (Printf.sprintf "d=%d a=%d x=%d" d alpha x)
          (if x = alpha then 1 else 0)
          (Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x)
      done)
    [ (1, 0); (1, 1); (2, 3); (10, 0); (10, 1023) ]

let test_gen_validation () =
  let r = rng () in
  Alcotest.check_raises "domain too small" (Invalid_argument "Dpf.gen: domain_bits out of range")
    (fun () -> ignore (Dpf.gen ~domain_bits:0 ~alpha:0 r));
  Alcotest.check_raises "alpha out of range" (Invalid_argument "Dpf.gen: alpha out of domain")
    (fun () -> ignore (Dpf.gen ~domain_bits:3 ~alpha:8 r));
  Alcotest.check_raises "alpha negative" (Invalid_argument "Dpf.gen: alpha out of domain")
    (fun () -> ignore (Dpf.gen ~domain_bits:3 ~alpha:(-1) r))

let test_eval_validation () =
  let k0, _ = Dpf.gen ~domain_bits:3 ~alpha:2 (rng ()) in
  Alcotest.check_raises "x out of domain" (Invalid_argument "Dpf.eval: index out of domain")
    (fun () -> ignore (Dpf.eval_bit k0 8))

(* ---------------- eval_all consistency ---------------- *)

let test_eval_all_matches_point () =
  let d = 8 and alpha = 211 in
  let k0, _ = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
  let bits = Array.make (1 lsl d) (-1) in
  Dpf.eval_all_bits k0 (fun x t ->
      Alcotest.(check int) "visited once" (-1) bits.(x);
      bits.(x) <- t);
  Array.iteri (fun x t -> Alcotest.(check int) (Printf.sprintf "x=%d" x) (Dpf.eval_bit k0 x) t) bits

let test_eval_all_visits_in_order () =
  let k0, _ = Dpf.gen ~domain_bits:7 ~alpha:12 (rng ()) in
  let expected = ref 0 in
  Dpf.eval_all_bits k0 (fun x _ ->
      Alcotest.(check int) "order" !expected x;
      incr expected);
  Alcotest.(check int) "count" 128 !expected

(* The indices where a share's bit is 1. *)
let selected_indices k =
  List.filter (fun x -> Dpf.eval_bit k x = 1) (List.init (1 lsl Dpf.domain_bits k) Fun.id)

let test_selected_indices_halfish () =
  let d = 10 in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha:77 (rng ()) in
  let n0 = List.length (selected_indices k0) in
  let n1 = List.length (selected_indices k1) in
  (* each share bit is pseudorandom: expect ~512 +/- 5 sigma (~80) *)
  Alcotest.(check bool) "share0 balanced" true (n0 > 384 && n0 < 640);
  Alcotest.(check bool) "share1 balanced" true (n1 > 384 && n1 < 640);
  (* the two sets differ in exactly the point alpha *)
  let s0 = List.filter (fun x -> not (List.mem x (selected_indices k1))) (selected_indices k0) in
  let s1 = List.filter (fun x -> not (List.mem x (selected_indices k0))) (selected_indices k1) in
  Alcotest.(check (list int)) "symmetric difference" [ 77 ] (List.sort compare (s0 @ s1))

(* ---------------- distributed evaluation ---------------- *)

(* Shard [shard]'s local index [j] in the whole domain: the shard number
   is the top bits. *)
let global_index ~rem_bits ~shard j = (shard lsl rem_bits) lor j

let test_distributed_equivalence () =
  let d = 10 and shard_bits = 3 in
  let alpha = 709 in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
  List.iter
    (fun k ->
      let subs = Distributed.split k ~shard_bits in
      Alcotest.(check int) "shard count" 8 (Array.length subs);
      let rem = d - shard_bits in
      Array.iteri
        (fun shard sub ->
          Alcotest.(check int) "sub domain" rem (Dpf.domain_bits sub);
          for j = 0 to (1 lsl rem) - 1 do
            let g = global_index ~rem_bits:rem ~shard j in
            Alcotest.(check int)
              (Printf.sprintf "shard=%d j=%d" shard j)
              (Dpf.eval_bit k g) (Dpf.eval_bit sub j)
          done)
        subs)
    [ k0; k1 ]

let test_distributed_correctness_combined () =
  (* shards of the two parties still XOR to the point function *)
  let d = 9 and shard_bits = 2 and alpha = 300 in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
  let s0 = Distributed.split k0 ~shard_bits and s1 = Distributed.split k1 ~shard_bits in
  let rem = d - shard_bits in
  let hits = ref [] in
  Array.iteri
    (fun shard sub0 ->
      for j = 0 to (1 lsl rem) - 1 do
        if Dpf.eval_bit sub0 j lxor Dpf.eval_bit s1.(shard) j = 1 then
          hits := global_index ~rem_bits:rem ~shard j :: !hits
      done)
    s0;
  Alcotest.(check (list int)) "single point" [ alpha ] !hits

let test_distributed_validation () =
  let k0, _ = Dpf.gen ~domain_bits:5 ~alpha:3 (rng ()) in
  Alcotest.check_raises "zero" (Invalid_argument "Distributed.split: bad shard_bits") (fun () ->
      ignore (Distributed.split k0 ~shard_bits:0));
  Alcotest.check_raises "full" (Invalid_argument "Distributed.split: bad shard_bits") (fun () ->
      ignore (Distributed.split k0 ~shard_bits:5))

(* ---------------- serialisation ---------------- *)

let test_serialize_roundtrip () =
  let d = 12 in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha:1000 (rng ()) in
  List.iter
    (fun k ->
      let s = Dpf.serialize k in
      Alcotest.(check int) "size formula" (Dpf.serialized_size ~domain_bits:d) (String.length s);
      match Dpf.deserialize s with
      | Error e -> Alcotest.fail (Dpf.decode_error_message e)
      | Ok k' ->
          Alcotest.(check int) "party" (Dpf.party k) (Dpf.party k');
          Alcotest.(check int) "domain" (Dpf.domain_bits k) (Dpf.domain_bits k');
          for x = 0 to 200 do
            Alcotest.(check int) "eval agrees" (Dpf.eval_bit k x) (Dpf.eval_bit k' x)
          done)
    [ k0; k1 ]

let test_serialize_subkey_roundtrip () =
  let k0, _ = Dpf.gen ~domain_bits:8 ~alpha:200 (rng ()) in
  let subs = Distributed.split k0 ~shard_bits:3 in
  Array.iteri
    (fun shard sub ->
      match Dpf.deserialize (Dpf.serialize sub) with
      | Error e -> Alcotest.fail (Dpf.decode_error_message e)
      | Ok sub' ->
          for j = 0 to 31 do
            Alcotest.(check int)
              (Printf.sprintf "shard %d j %d" shard j)
              (Dpf.eval_bit sub j) (Dpf.eval_bit sub' j)
          done)
    subs

(* A version-2 key of BGI16's value-carrying shape over a [2^domain_bits]
   domain: header (bytes 8-9 the value length, 1; term_bits 0, the tree
   running to the leaves), root seed, 16-byte correction word and control
   bits per level, 1-byte leaf word. *)
let value_shaped_key ~domain_bits =
  let d = domain_bits in
  String.concat ""
    [
      "D\x02\x00\x00\x00"; String.make 1 (Char.chr d); "\x00\x00\x00\x01";
      String.make 16 '\x5a'; String.make (16 * d) '\xa5'; String.make d '\x01'; "\x07";
    ]

let test_deserialize_rejects () =
  let k0, _ = Dpf.gen ~domain_bits:4 ~alpha:9 (rng ()) in
  let s = Dpf.serialize k0 in
  let mutate i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_err (Dpf.deserialize ""));
  Alcotest.(check bool) "bad magic" true (is_err (Dpf.deserialize (mutate 0 'X')));
  Alcotest.(check bool) "bad version" true (is_err (Dpf.deserialize (mutate 1 '\x09')));
  Alcotest.(check bool) "bad party" true (is_err (Dpf.deserialize (mutate 2 '\x05')));
  Alcotest.(check bool) "bad prg" true (is_err (Dpf.deserialize (mutate 4 '\x7f')));
  (* AES-MMO (tag 0) is the only PRG a key may name *)
  List.iter
    (fun tag ->
      match Dpf.deserialize (mutate 4 (Char.chr tag)) with
      | Error (Dpf.Malformed "unknown prg") -> ()
      | _ -> Alcotest.fail (Printf.sprintf "prg tag %d not rejected as unknown" tag))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "truncated" true (is_err (Dpf.deserialize (String.sub s 0 (String.length s - 1))));
  Alcotest.(check bool) "extended" true (is_err (Dpf.deserialize (s ^ "\x00")));
  Alcotest.(check bool) "bad term_bits" true (is_err (Dpf.deserialize (mutate 6 '\x08')));
  Alcotest.(check bool) "misaligned leaf_lo" true (is_err (Dpf.deserialize (mutate 7 '\x01')));
  Alcotest.(check bool) "nonzero bytes 8-9" true (is_err (Dpf.deserialize (mutate 9 '\x01')));
  (* a value-carrying key: a full tree (term_bits 0) and a 1-byte leaf
     word, which would make a server walk every leaf *)
  match Dpf.deserialize (value_shaped_key ~domain_bits:4) with
  | Error (Dpf.Malformed _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Dpf.decode_error_message e)
  | Ok _ -> Alcotest.fail "value-shaped key accepted"

let test_key_sizes () =
  Alcotest.(check int) "paper formula d=22" 2860 (Dpf.paper_key_size ~domain_bits:22);
  (* bit-only keys stop the tree 7 levels early:
     10 + 16 + 17*(d - min 7 d) + 16 bytes *)
  Alcotest.(check int) "real size d=22" 297 (Dpf.serialized_size ~domain_bits:22);
  Alcotest.(check int) "real size d=12" 127 (Dpf.serialized_size ~domain_bits:12);
  Alcotest.(check int) "real size d=5" 42 (Dpf.serialized_size ~domain_bits:5);
  for d = 1 to 30 do
    Alcotest.(check int) (Printf.sprintf "formula d=%d" d)
      (10 + 16 + (17 * (d - min 7 d)) + 16)
      (Dpf.serialized_size ~domain_bits:d)
  done

let test_rejects_version_1 () =
  let k0, _ = Dpf.gen ~domain_bits:12 ~alpha:1234 (rng ()) in
  let b = Bytes.of_string (Dpf.serialize k0) in
  Bytes.set b 1 '\x01';
  match Dpf.deserialize (Bytes.to_string b) with
  | Error (Dpf.Unsupported_version 1) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Dpf.decode_error_message e)
  | Ok _ -> Alcotest.fail "version-1 key accepted"

(* The leaf correction word is the last 16 bytes of a serialised
   selection key. Were the terminal conversion the raw seed, bit 120 of
   it (byte 15, bit 0, where every seed keeps its control bit clear)
   would equal [alpha mod 128 = 120] in every key. A PRG call leaves no
   bit constant over fresh keys. *)
let test_leaf_correction_not_constant () =
  let r = rng () in
  let n = 2000 and alpha = (5 * 128) + 120 in
  let ones = Array.make 128 0 in
  for _ = 1 to n do
    let k0, _ = Dpf.gen ~domain_bits:12 ~alpha r in
    let s = Dpf.serialize k0 in
    let cw = String.sub s (String.length s - 16) 16 in
    for j = 0 to 127 do
      ones.(j) <- ones.(j) + ((Char.code cw.[j lsr 3] lsr (j land 7)) land 1)
    done
  done;
  Array.iteri
    (fun j c ->
      Alcotest.(check bool) (Printf.sprintf "leaf cw bit %d varies" j) true (c > 0 && c < n))
    ones

(* ---------------- privacy sanity ---------------- *)

let test_single_share_balanced_bits () =
  (* one share's eval bits should look like fair coin flips regardless of
     alpha: compare population counts for two very different alphas *)
  let d = 12 in
  let count alpha =
    let k0, _ = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
    let n = ref 0 in
    Dpf.eval_all_bits k0 (fun _ t -> n := !n + t);
    !n
  in
  let n1 = count 0 and n2 = count 4095 in
  let mid = 1 lsl (d - 1) in
  let tol = 6 * int_of_float (sqrt (float_of_int mid)) in
  Alcotest.(check bool) "alpha=0 balanced" true (abs (n1 - mid) < tol);
  Alcotest.(check bool) "alpha=max balanced" true (abs (n2 - mid) < tol)

let test_keys_differ_between_gens () =
  let k0a, _ = Dpf.gen ~domain_bits:8 ~alpha:5 (rng ()) in
  let r = rng () in
  ignore (Lw_crypto.Drbg.generate r 1);
  let k0b, _ = Dpf.gen ~domain_bits:8 ~alpha:5 r in
  Alcotest.(check bool) "fresh randomness" true
    (not (String.equal (Dpf.serialize k0a) (Dpf.serialize k0b)))

(* ---------------- properties ---------------- *)

let prop_correctness =
  QCheck.Test.make ~name:"dpf point function (random d, alpha)" ~count:60
    QCheck.(pair (int_range 1 11) (int_range 0 10000))
    (fun (d, a) ->
      let alpha = a mod (1 lsl d) in
      let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
      let ok = ref true in
      for x = 0 to (1 lsl d) - 1 do
        let v = Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x in
        if v <> if x = alpha then 1 else 0 then ok := false
      done;
      !ok)

let prop_distributed_split =
  QCheck.Test.make ~name:"distributed split equals direct eval" ~count:30
    QCheck.(triple (int_range 3 9) (int_range 1 2) (int_range 0 100000))
    (fun (d, sb, a) ->
      let alpha = a mod (1 lsl d) in
      let k0, _ = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
      let subs = Distributed.split k0 ~shard_bits:sb in
      let rem = d - sb in
      let ok = ref true in
      Array.iteri
        (fun shard sub ->
          for j = 0 to (1 lsl rem) - 1 do
            if Dpf.eval_bit sub j <> Dpf.eval_bit k0 (global_index ~rem_bits:rem ~shard j)
            then ok := false
          done)
        subs;
      !ok)

(* Early termination across its boundary: domains below, at and above
   the 7 levels a terminal node covers. *)
let gen_boundary = QCheck.(pair (int_range 1 14) (int_range 0 (1 lsl 14)))

let boundary_key (d, a) =
  let alpha = a mod (1 lsl d) in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
  (alpha, k0, k1)

let all_bits k =
  let bits = Bytes.make (1 lsl Dpf.domain_bits k) '\x09' in
  Dpf.eval_all_bits k (fun x b -> Bytes.set bits x (Char.chr b));
  bits

let prop_boundary_one_hot =
  QCheck.Test.make ~name:"early termination: shares XOR to one-hot" ~count:40 gen_boundary
    (fun case ->
      let alpha, k0, k1 = boundary_key case in
      let b0 = all_bits k0 and b1 = all_bits k1 in
      let ok = ref true in
      Bytes.iteri
        (fun x c ->
          let v = Char.code c lxor Char.code (Bytes.get b1 x) in
          if v <> if x = alpha then 1 else 0 then ok := false)
        b0;
      !ok)

let prop_boundary_blocked =
  QCheck.Test.make ~name:"early termination: every block size = eval_all_bits" ~count:25
    gen_boundary (fun case ->
      let _, k0, _ = boundary_key case in
      let d = Dpf.domain_bits k0 in
      let want = all_bits k0 in
      List.for_all
        (fun block_bits ->
          let got = Bytes.make (1 lsl d) '\x09' in
          let next = ref 0 in
          Dpf.eval_bits_blocked k0 ~block_bits (fun base buf count ->
              if base <> !next || count <> 1 lsl block_bits then
                QCheck.Test.fail_reportf "block at %d (want %d), %d leaves" base !next count;
              Bytes.blit buf 0 got base count;
              next := base + count);
          !next = 1 lsl d && Bytes.equal got want)
        (List.init (d + 1) Fun.id))

let prop_boundary_pointwise =
  QCheck.Test.make ~name:"early termination: eval_bit = eval_all_bits" ~count:25 gen_boundary
    (fun case ->
      let alpha, k0, k1 = boundary_key case in
      let size = 1 lsl Dpf.domain_bits k0 in
      let b0 = all_bits k0 and b1 = all_bits k1 in
      (* every leaf up to 2^10, a stride beyond, and always alpha *)
      let xs = alpha :: List.filter (fun x -> x < size) (List.init 1024 (fun i -> i * max 1 (size / 1024))) in
      List.for_all
        (fun x ->
          Dpf.eval_bit k0 x = Char.code (Bytes.get b0 x)
          && Dpf.eval_bit k1 x = Char.code (Bytes.get b1 x))
        xs)

let prop_boundary_split =
  QCheck.Test.make ~name:"early termination: split at every level = direct eval" ~count:25
    gen_boundary (fun case ->
      let _, k0, _ = boundary_key case in
      let d = Dpf.domain_bits k0 in
      let want = all_bits k0 in
      List.for_all
        (fun shard_bits ->
          let rem = d - shard_bits in
          let subs = Distributed.split k0 ~shard_bits in
          let ok = ref (Array.length subs = 1 lsl shard_bits) in
          Array.iteri
            (fun shard sub ->
              if Dpf.domain_bits sub <> rem then ok := false;
              Dpf.eval_all_bits sub (fun j b ->
                  let x = global_index ~rem_bits:rem ~shard j in
                  if b <> Char.code (Bytes.get want x) then ok := false))
            subs;
          !ok)
        (List.init (max 0 (d - 1)) (fun i -> i + 1)))

let prop_boundary_serialize =
  QCheck.Test.make ~name:"early termination: keys and sub-keys round-trip" ~count:25
    gen_boundary (fun case ->
      let _, k0, _ = boundary_key case in
      let d = Dpf.domain_bits k0 in
      let roundtrip k =
        let s = Dpf.serialize k in
        String.length s = Dpf.serialized_size ~domain_bits:(Dpf.domain_bits k)
        &&
        match Dpf.deserialize s with
        | Error e -> QCheck.Test.fail_report (Dpf.decode_error_message e)
        | Ok k' -> String.equal (Dpf.serialize k') s && Bytes.equal (all_bits k') (all_bits k)
      in
      roundtrip k0
      && List.for_all
           (fun shard_bits -> Array.for_all roundtrip (Distributed.split k0 ~shard_bits))
           (List.init (max 0 (d - 1)) (fun i -> i + 1)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_correctness;
      prop_distributed_split;
      prop_boundary_one_hot;
      prop_boundary_blocked;
      prop_boundary_pointwise;
      prop_boundary_split;
      prop_boundary_serialize;
    ]

let () =
  Alcotest.run "lw_dpf"
    [
      ( "correctness",
        [
          Alcotest.test_case "point bits" `Quick test_point_function_bits;
          Alcotest.test_case "all alphas d=4" `Quick test_point_function_all_alphas;
          Alcotest.test_case "domain edges" `Quick test_domain_edges;
          Alcotest.test_case "gen validation" `Quick test_gen_validation;
          Alcotest.test_case "eval validation" `Quick test_eval_validation;
        ] );
      ( "eval_all",
        [
          Alcotest.test_case "matches point eval" `Quick test_eval_all_matches_point;
          Alcotest.test_case "in-order traversal" `Quick test_eval_all_visits_in_order;
          Alcotest.test_case "selected indices" `Quick test_selected_indices_halfish;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "share equivalence" `Quick test_distributed_equivalence;
          Alcotest.test_case "combined correctness" `Quick test_distributed_correctness_combined;
          Alcotest.test_case "validation" `Quick test_distributed_validation;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "subkey roundtrip" `Quick test_serialize_subkey_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_deserialize_rejects;
          Alcotest.test_case "key sizes" `Quick test_key_sizes;
          Alcotest.test_case "rejects version 1" `Quick test_rejects_version_1;
        ] );
      ( "privacy",
        [
          Alcotest.test_case "single share balanced" `Quick test_single_share_balanced_bits;
          Alcotest.test_case "fresh randomness" `Quick test_keys_differ_between_gens;
          Alcotest.test_case "leaf correction word varies" `Quick
            test_leaf_correction_not_constant;
        ] );
      ("properties", props);
    ]
