let test_hex_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s (Lw_util.Hex.decode (Lw_util.Hex.encode s)))
    [ ""; "\x00"; "abc"; String.init 256 Char.chr ]

let test_hex_decode_cases () =
  Alcotest.(check string) "upper" "\xde\xad\xbe\xef" (Lw_util.Hex.decode "DEADBEEF");
  Alcotest.(check (option string)) "odd" None (Lw_util.Hex.decode_opt "abc");
  Alcotest.(check (option string)) "bad char" None (Lw_util.Hex.decode_opt "zz");
  Alcotest.(check (option string)) "ok" (Some "\x01\x02") (Lw_util.Hex.decode_opt "0102")

let test_xor_basic () =
  Alcotest.(check string) "self-inverse" "abc" (Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor "abc" "xyz") "xyz");
  Alcotest.(check string) "zero" "abc" (Lw_util.Xorbuf.xor "abc" "\x00\x00\x00");
  Alcotest.check_raises "length mismatch" (Invalid_argument "Xorbuf.xor: length mismatch")
    (fun () -> ignore (Lw_util.Xorbuf.xor "ab" "abc"))

let test_xor_into_offsets () =
  (* exercise the word loop + tail across alignments *)
  List.iter
    (fun (len, spos, dpos) ->
      let src = Bytes.init 64 (fun i -> Char.chr (i land 0xff)) in
      let dst = Bytes.make 64 '\x55' in
      let expected =
        Bytes.init 64 (fun i ->
            if i >= dpos && i < dpos + len then
              Char.chr (0x55 lxor Char.code (Bytes.get src (spos + i - dpos)))
            else '\x55')
      in
      Lw_util.Xorbuf.xor_into ~src ~src_pos:spos ~dst ~dst_pos:dpos ~len;
      Alcotest.(check string)
        (Printf.sprintf "len=%d s=%d d=%d" len spos dpos)
        (Bytes.to_string expected) (Bytes.to_string dst))
    [ (0, 0, 0); (1, 0, 0); (7, 3, 5); (8, 1, 2); (9, 0, 0); (16, 8, 8); (33, 7, 13) ]

let test_xor_bounds () =
  let b = Bytes.make 8 '\x00' in
  Alcotest.check_raises "src overflow"
    (Invalid_argument "Xorbuf.xor_into(src): range out of bounds") (fun () ->
      Lw_util.Xorbuf.xor_into ~src:b ~src_pos:4 ~dst:(Bytes.make 32 '\x00') ~dst_pos:0 ~len:8)

let test_xor_bounds_overflow () =
  (* pos + len overflowing the native int must still be rejected: the
     check is [pos > total - len], never the wrappable sum *)
  let b = Bytes.make 8 '\x00' in
  let dst = Bytes.make 8 '\x00' in
  List.iter
    (fun (spos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos=%d len=%d" spos len)
        (Invalid_argument "Xorbuf.xor_into(src): range out of bounds")
        (fun () -> Lw_util.Xorbuf.xor_into ~src:b ~src_pos:spos ~dst ~dst_pos:0 ~len))
    [ (1, max_int); (max_int, 8); (4, max_int - 2); (0, -1); (-1, 4) ]

let test_is_zero () =
  Alcotest.(check bool) "zero" true (Lw_util.Xorbuf.is_zero "\x00\x00");
  Alcotest.(check bool) "nonzero" false (Lw_util.Xorbuf.is_zero "\x00\x01");
  Alcotest.(check bool) "empty" true (Lw_util.Xorbuf.is_zero "");
  (* word loop + byte tail: lone set bits at every offset of a 19-byte
     buffer, plus ranges that exclude the set byte *)
  for i = 0 to 18 do
    let b = Bytes.make 19 '\x00' in
    Bytes.set b i '\x80';
    Alcotest.(check bool)
      (Printf.sprintf "bit at %d seen" i)
      false
      (Lw_util.Xorbuf.is_zero_range b ~pos:0 ~len:19);
    Alcotest.(check bool)
      (Printf.sprintf "bit at %d excluded" i)
      true
      (Lw_util.Xorbuf.is_zero_range b ~pos:((i + 1) mod 19)
         ~len:(if i = 18 then 18 else 19 - i - 1));
    Alcotest.(check bool) "empty range" true (Lw_util.Xorbuf.is_zero_range b ~pos:i ~len:0)
  done;
  Alcotest.check_raises "range checked"
    (Invalid_argument "Xorbuf.is_zero_range: range out of bounds") (fun () ->
      ignore (Lw_util.Xorbuf.is_zero_range (Bytes.make 4 '\x00') ~pos:2 ~len:max_int))

(* Every build of the C scan kernel this CPU runs, not only the one
   the loader picked, against the byte-wise [xor_into_masked]
   reference, one lane at a time. Widths 1-17 cross into a second and
   third bit plane; buckets from 1 to 4096+48 sit below, on and just
   past the 16-, 32- and 64-byte vector boundaries, so they take the
   vector loop, its byte tail, or both, and 511, 512, 513 and 1024+64
   sit below, on and past the 512-byte strip, so they take the 4-record
   tiles walked whole or the 8-record tiles walked in strips, with or
   without a short last strip; counts 0-9, 15-17 and 64 take the tiles,
   the records left over, or both. Positions are non-zero
   and odd, the plane stride is sometimes equal to [count] (a single
   answer's shape) and sometimes wider, and every accumulator starts
   full of random bytes. *)
let lanes_reference ~bits ~bits_pos ~stride ~count ~src ~src_pos ~bucket ~dsts =
  Array.mapi
    (fun q dst ->
      let acc = Bytes.copy dst in
      for j = 0 to count - 1 do
        let byte = Char.code (Bytes.get bits (bits_pos + ((q lsr 3) * stride) + j)) in
        let mask = -((byte lsr (q land 7)) land 1) land 0xff in
        Lw_util.Xorbuf.xor_into_masked ~mask ~src ~src_pos:(src_pos + (j * bucket)) ~dst:acc
          ~dst_pos:0 ~len:bucket
      done;
      acc)
    dsts

let check_lanes rng ~kernel ~lanes ~bits_pos ~stride ~count ~src_pos ~bucket =
  let planes = (lanes + 7) / 8 in
  let bits = Bytes.of_string (Lw_util.Det_rng.bytes rng (bits_pos + (planes * stride) + 1)) in
  let src = Bytes.of_string (Lw_util.Det_rng.bytes rng (src_pos + (count * bucket) + 1)) in
  let dsts = Array.init lanes (fun _ -> Bytes.of_string (Lw_util.Det_rng.bytes rng bucket)) in
  let expected = lanes_reference ~bits ~bits_pos ~stride ~count ~src ~src_pos ~bucket ~dsts in
  Lw_util.Xorbuf.xor_buckets_lanes_on ~kernel ~bits ~bits_pos ~stride ~count ~src ~src_pos
    ~bucket ~dsts;
  Alcotest.(check (array string))
    (Printf.sprintf "%s lanes=%d count=%d bucket=%d stride=%d" kernel lanes count bucket stride)
    (Array.map Bytes.to_string expected) (Array.map Bytes.to_string dsts)

(* The CPU features the OS reports, where it reports them: the flags
   line of /proc/cpuinfo on x86-64 Linux. *)
let cpu_flags () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> None
  | info ->
      String.split_on_char '\n' info
      |> List.find_opt (String.starts_with ~prefix:"flags")
      |> Option.map (String.split_on_char ' ')

let test_xor_buckets_lanes () =
  let rng = Lw_util.Det_rng.of_string_seed "buckets-lanes" in
  let kernels = Lw_util.Xorbuf.scan_kernels () in
  Alcotest.(check string) "the picked build runs first" (Lw_util.Xorbuf.scan_kernel ())
    (List.hd kernels);
  Alcotest.(check string) "every CPU runs the baseline build" "baseline"
    (List.nth kernels (List.length kernels - 1));
  Option.iter
    (fun flags ->
      let widest =
        if List.mem "avx512f" flags then "avx512"
        else if List.mem "avx2" flags then "avx2"
        else "baseline"
      in
      Alcotest.(check string) "the loader picks the widest build the CPU has" widest
        (Lw_util.Xorbuf.scan_kernel ()))
    (cpu_flags ());
  List.iter
    (fun kernel ->
      List.iter
        (fun bucket ->
          List.iter
            (fun count ->
              for lanes = 1 to 17 do
                check_lanes rng ~kernel ~lanes ~bits_pos:3 ~stride:(count + (lanes mod 3)) ~count
                  ~src_pos:5 ~bucket
              done)
            [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 15; 16; 17; 64 ])
        [ 1; 15; 16; 17; 24; 31; 32; 33; 63; 64; 65; 127; 129; 511; 512; 513; 1024 + 64; 4096;
          4096 + 48 ];
      (* a single answer's block: one lane, plane 0 at offset 0 *)
      List.iter
        (fun (count, bucket) ->
          check_lanes rng ~kernel ~lanes:1 ~bits_pos:0 ~stride:count ~count ~src_pos:0 ~bucket)
        [ (1, 1); (3, 7); (4, 8); (5, 32); (2, 33); (7, 40); (1, 100); (6, 64); (5, 4096 + 48) ])
    kernels;
  Alcotest.check_raises "a build this CPU does not run"
    (Invalid_argument "Xorbuf.xor_buckets_lanes_on: kernel not runnable on this CPU") (fun () ->
      Lw_util.Xorbuf.xor_buckets_lanes_on ~kernel:"sse1" ~bits:(Bytes.make 4 '\x00') ~bits_pos:0
        ~stride:4 ~count:4 ~src:(Bytes.make 32 '\x00') ~src_pos:0 ~bucket:8
        ~dsts:[| Bytes.make 8 '\x00' |]);
  let run ?(bits = Bytes.make 16 '\x00') ?(stride = 4) ?(count = 4) ?(bucket = 8)
      ?(src = Bytes.make 32 '\x00') ?(dsts = [| Bytes.make 8 '\x00' |]) () =
    Lw_util.Xorbuf.xor_buckets_lanes ~bits ~bits_pos:0 ~stride ~count ~src ~src_pos:0 ~bucket
      ~dsts
  in
  let geometry = Invalid_argument "Xorbuf.xor_buckets_lanes: bad geometry" in
  Alcotest.check_raises "no lanes" geometry (fun () -> run ~dsts:[||] ());
  Alcotest.check_raises "empty bucket" geometry (fun () -> run ~bucket:0 ());
  Alcotest.check_raises "negative count" geometry (fun () -> run ~count:(-1) ());
  Alcotest.check_raises "planes overlap" geometry (fun () -> run ~stride:3 ());
  let bits_range = Invalid_argument "Xorbuf.xor_buckets_lanes(bits): range out of bounds" in
  Alcotest.check_raises "bits range" bits_range (fun () ->
      run ~bits:(Bytes.make 5 '\x00') ~dsts:(Array.init 9 (fun _ -> Bytes.make 8 '\x00')) ());
  (* [(planes - 1) * stride] would wrap round to a small length *)
  Alcotest.check_raises "bits range overflow" bits_range (fun () ->
      run ~stride:max_int ~count:4
        ~dsts:(Array.init 17 (fun _ -> Bytes.make 8 '\x00')) ());
  let src_range = Invalid_argument "Xorbuf.xor_buckets_lanes(src): range out of bounds" in
  Alcotest.check_raises "src range" src_range (fun () -> run ~src:(Bytes.make 31 '\x00') ());
  Alcotest.check_raises "src range, one lane" src_range (fun () ->
      run ~bits:(Bytes.make 4 '\x00') ~src:(Bytes.make 16 '\x00') ());
  (* [count * bucket] would wrap round to a small length *)
  Alcotest.check_raises "src range overflow" src_range (fun () ->
      run ~bucket:(1 lsl 61) ());
  Alcotest.check_raises "dst range"
    (Invalid_argument "Xorbuf.xor_buckets_lanes(dst): range out of bounds") (fun () ->
      run ~dsts:[| Bytes.make 8 '\x00'; Bytes.make 7 '\x00' |] ())

(* The extent-bounded kernel on every build against the whole-record
   reference: each record is random up to its extent and zero past it,
   so skipping the tail must change nothing. Extents are 0, whole
   columns, odd lengths, the bucket and past it (capped); runs whose
   extents are all one value take the uniform walk, the rest mix
   extents inside a tile or between tiles. Buckets, counts and widths cross the same
   vector, tile and plane boundaries as the lane cases above. *)
let check_extents_lanes rng ~kernel ~lanes ~count ~bucket ~pick =
  let stride = count + (lanes mod 2) in
  let planes = (lanes + 7) / 8 in
  let bits = Bytes.of_string (Lw_util.Det_rng.bytes rng ((planes * stride) + 1)) in
  let extents = Bytes.create ((4 * count) + 4) in
  let src = Bytes.make ((count * bucket) + 3) '\x00' in
  for j = 0 to count - 1 do
    let e = pick j in
    Bytes.set_int32_ne extents (4 + (4 * j)) (Int32.of_int e);
    let len = min e bucket in
    Bytes.blit_string (Lw_util.Det_rng.bytes rng len) 0 src (3 + (j * bucket)) len
  done;
  let dsts = Array.init lanes (fun _ -> Bytes.of_string (Lw_util.Det_rng.bytes rng bucket)) in
  let expected =
    lanes_reference ~bits ~bits_pos:0 ~stride ~count ~src ~src_pos:3 ~bucket ~dsts
  in
  Lw_util.Xorbuf.xor_extents_lanes_on ~kernel ~extents ~extents_pos:4 ~bits ~bits_pos:0 ~stride
    ~count ~src ~src_pos:3 ~bucket ~dsts;
  Alcotest.(check (array string))
    (Printf.sprintf "%s extents lanes=%d count=%d bucket=%d" kernel lanes count bucket)
    (Array.map Bytes.to_string expected) (Array.map Bytes.to_string dsts)

let test_xor_extents_lanes () =
  let rng = Lw_util.Det_rng.of_string_seed "extents-lanes" in
  let mixed bucket j =
    match (j * 7) mod 9 with
    | 0 -> 0
    | 1 -> bucket
    | 2 -> 64
    | 3 -> min bucket 128
    | 4 -> 1 + Lw_util.Det_rng.int rng bucket
    | 5 -> bucket + 1
    | 6 -> 0xffffffff
    | 7 -> 64 * Lw_util.Det_rng.int rng ((bucket / 64) + 1)
    | _ -> 0
  in
  List.iter
    (fun kernel ->
      List.iter
        (fun bucket ->
          List.iter
            (fun count ->
              List.iter
                (fun lanes ->
                  List.iter
                    (fun pick -> check_extents_lanes rng ~kernel ~lanes ~count ~bucket ~pick)
                    [
                      mixed bucket;
                      (fun _ -> 64);
                      (fun _ -> 0);
                      (fun _ -> bucket);
                      (* a first tile of one odd extent, in a run of another *)
                      (fun j -> if j < 8 then 100 else 37);
                    ])
                [ 1; 2; 5; 8; 9; 16; 17 ])
            [ 0; 1; 3; 4; 7; 8; 9; 16; 17; 64 ])
        [ 1; 63; 64; 65; 200; 513; 1024 + 64; 4096 + 48 ])
    (Lw_util.Xorbuf.scan_kernels ());
  (* The sorted walk's edges: runs past a chunk of 512 records, a bucket
     whose columns the sort bins sixteen at a time, runs of one extent
     among others (the stable order keeps them in index order), and odd
     extents that share a bin. *)
  let big = 65536 + 48 in
  List.iter
    (fun kernel ->
      List.iter
        (fun (lanes, count, bucket, pick) ->
          check_extents_lanes rng ~kernel ~lanes ~count ~bucket ~pick)
        [
          (5, 513, 200, mixed 200);
          (1, 513, 1024 + 64, mixed (1024 + 64));
          (9, 1100, 513, mixed 513);
          (16, 1100, 64, mixed 64);
          (5, 40, big, mixed big);
          (1, 19, big, fun j -> 64 * (1 + (j * 5 mod 17)) + (j land 1));
          (5, 64, 1024, fun j -> [| 0; 512; 1024; 512; 512; 1024 |].(j mod 6));
          (9, 70, 1024, fun j -> if j < 20 then 256 else if j < 50 then 0 else 256);
          (5, 48, 4096, fun j -> 64 + 1 + (j * 13 mod 63));
          (2, 33, 4096 + 48, fun j -> 4096 + (j mod 3 * 17));
        ])
    (Lw_util.Xorbuf.scan_kernels ());
  Alcotest.check_raises "extents range"
    (Invalid_argument "Xorbuf.xor_buckets_lanes(extents): range out of bounds") (fun () ->
      Lw_util.Xorbuf.xor_extents_lanes ~extents:(Bytes.make 15 '\x00') ~extents_pos:0
        ~bits:(Bytes.make 4 '\x00') ~bits_pos:0 ~stride:4 ~count:4 ~src:(Bytes.make 32 '\x00')
        ~src_pos:0 ~bucket:8 ~dsts:[| Bytes.make 8 '\x00' |])

(* The sorted walk's visit order against a model: per chunk of 512
   records, a stable sort of the non-zero extents by key, descending,
   the key an extent's whole columns (binned where a bucket has more
   than 125 of them) with the bucket above all. The type pins that no
   selection bit goes in. *)
let extent_order_model ~extents ~count ~bucket =
  let cols = bucket / 64 in
  let rec shift s = if (cols lsr s) + 3 > 128 then shift (s + 1) else s in
  let s = shift 0 in
  let key e = ((e / 64) lsr s) + 1 + Bool.to_int (e = bucket) in
  List.init ((count + 511) / 512) (fun c ->
      List.init (min 512 (count - (512 * c))) (fun i -> (512 * c) + i)
      |> List.filter_map (fun j ->
             let e = Int32.to_int (Bytes.get_int32_ne extents (4 * j)) land 0xffffffff in
             let e = min bucket e in
             if e = 0 then None else Some (key e, j))
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare b a)
      |> List.map snd)
  |> List.concat

let test_extent_order () =
  let (_ : extents:Bytes.t -> extents_pos:int -> count:int -> bucket:int -> int array) =
    Lw_util.Xorbuf.extent_order
  in
  let order ?(pos = 0) bucket es =
    let extents = Bytes.make ((4 * List.length es) + pos) '\x7f' in
    List.iteri (fun j e -> Bytes.set_int32_ne extents (pos + (4 * j)) (Int32.of_int e)) es;
    Array.to_list
      (Lw_util.Xorbuf.extent_order ~extents ~extents_pos:pos ~count:(List.length es) ~bucket)
  in
  let check name expected got = Alcotest.(check (list int)) name expected got in
  check "longest first, zero extents dropped" [ 5; 2; 1; 3 ]
    (order 4096 [ 0; 64; 128; 64; 0; 4096 ]);
  check "equal extents keep index order" [ 1; 4; 0; 2; 3 ]
    (order ~pos:3 1024 [ 512; 1024; 512; 512; 1024 ]);
  check "odd extents in one column's bin keep index order" [ 0; 1; 2; 3 ]
    (order 4096 [ 100; 70; 127; 64 ]);
  check "the bucket above its last whole column" [ 1; 0 ] (order 4100 [ 4096; 4100 ]);
  check "capped past the bucket" [ 1; 0 ] (order 4096 [ 64; 0xffffffff ]);
  check "under one column" [ 1; 0 ] (order 4096 [ 1; 64 ]);
  check "all empty" [] (order 4096 [ 0; 0; 0 ]);
  check "none" [] (order 4096 []);
  (* past 125 columns two share a bin: 128 and 192 tie and keep index order *)
  check "fine bins at 125 columns" [ 1; 0 ] (order (125 * 64) [ 128; 192 ]);
  check "coarse bins at 126 columns" [ 0; 1 ] (order (126 * 64) [ 128; 192 ]);
  check "coarse bins" [ 0; 1 ] (order (65536 + 48) [ 128; 192 ]);
  check "bins of 16 columns past 64 KiB" [ 2; 0; 1 ]
    (order (65536 + 48) [ 128; 1023; 1024 ]);
  let rng = Lw_util.Det_rng.of_string_seed "extent-order" in
  List.iter
    (fun (count, bucket) ->
      let extents = Bytes.create (4 * count) in
      for j = 0 to count - 1 do
        let e =
          match Lw_util.Det_rng.int rng 5 with
          | 0 -> 0
          | 1 -> bucket
          | 2 -> 64 * Lw_util.Det_rng.int rng ((bucket / 64) + 1)
          | 3 -> 0xffffffff
          | _ -> 1 + Lw_util.Det_rng.int rng bucket
        in
        Bytes.set_int32_ne extents (4 * j) (Int32.of_int e)
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "model count=%d bucket=%d" count bucket)
        (extent_order_model ~extents ~count ~bucket)
        (Array.to_list (Lw_util.Xorbuf.extent_order ~extents ~extents_pos:0 ~count ~bucket)))
    [ (1, 1); (64, 63); (64, 4096); (513, 1024 + 64); (1100, 513); (1100, 65536 + 48);
      (300, 125 * 64); (300, 126 * 64); (200, 16384); (700, (1 lsl 20) + 5) ];
  Alcotest.check_raises "extents range"
    (Invalid_argument "Xorbuf.extent_order(extents): range out of bounds") (fun () ->
      ignore
        (Lw_util.Xorbuf.extent_order ~extents:(Bytes.make 15 '\x00') ~extents_pos:0 ~count:4
           ~bucket:64));
  Alcotest.check_raises "bad geometry" (Invalid_argument "Xorbuf.extent_order: bad geometry")
    (fun () ->
      ignore
        (Lw_util.Xorbuf.extent_order ~extents:(Bytes.make 16 '\x00') ~extents_pos:0 ~count:4
           ~bucket:0))

(* [nonzero_end]: every last-non-zero position in lengths around a word
   at several offsets, and the all-zero and empty ranges. *)
let test_nonzero_end () =
  for len = 0 to 27 do
    for pos = 0 to 3 do
      Alcotest.(check int) (Printf.sprintf "zero len=%d" len) 0
        (Lw_util.Xorbuf.nonzero_end (Bytes.make (pos + len) '\x00') ~pos ~len);
      for last = 0 to len - 1 do
        let b = Bytes.make (pos + len + 2) '\x00' in
        Bytes.set b (pos + last) '\x01';
        Bytes.set b (pos + (last / 2)) '\x07';
        Bytes.set b (pos + len) '\xff';
        Alcotest.(check int) (Printf.sprintf "len=%d last=%d" len last) (last + 1)
          (Lw_util.Xorbuf.nonzero_end b ~pos ~len)
      done
    done
  done

(* CRC-32 against a bit-at-a-time reference over the same reflected
   polynomial: the known answer, every length up to 64 and lengths
   around 4 KiB (the table loop and its byte tail), each at offsets 0-7,
   chaining one update into the next, and ranges outside the string. *)
let crc_reference s ~pos ~len =
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (lnot !c land 0xffffffff)

let test_crc32 () =
  let module Crc32 = Lw_util.Crc32 in
  Alcotest.(check int32) "known answer" 0xCBF43926l (Crc32.digest "123456789");
  let s = Lw_util.Det_rng.bytes (Lw_util.Det_rng.of_string_seed "crc32") (4100 + 8) in
  List.iter
    (fun len ->
      for pos = 0 to 7 do
        Alcotest.(check int32)
          (Printf.sprintf "len=%d pos=%d" len pos)
          (crc_reference s ~pos ~len) (Crc32.update 0l s ~pos ~len)
      done)
    (List.init 65 Fun.id @ [ 4093; 4094; 4095; 4096; 4097; 4098; 4099; 4100 ]);
  List.iter
    (fun (a, b) ->
      let a = String.sub s 0 a and b = String.sub s 100 b in
      Alcotest.(check int32)
        (Printf.sprintf "chain %d+%d" (String.length a) (String.length b))
        (Crc32.digest (a ^ b))
        (Crc32.update (Crc32.digest a) b ~pos:0 ~len:(String.length b)))
    [ (0, 0); (0, 9); (1, 7); (3, 8); (8, 8); (13, 4000); (4000, 13) ];
  let range = Invalid_argument "Crc32.update: range out of bounds" in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises (Printf.sprintf "pos=%d len=%d" pos len) range (fun () ->
          ignore (Crc32.update 0l "0123456789" ~pos ~len)))
    [ (-1, 1); (0, -1); (0, 11); (10, 1); (11, 0); (5, 6); (1, max_int) ]

(* Packing 0/1 selection bytes into lane bits: each lane's bit lands in
   its own position and leaves the other seven alone, across word and
   byte tails and a non-zero destination offset. *)
let test_set_lane_bits () =
  let rng = Lw_util.Det_rng.of_string_seed "lane-bits" in
  List.iter
    (fun len ->
      let dst = Bytes.make (len + 3) '\x00' in
      let lanes =
        Array.init 8 (fun _ -> Bytes.init len (fun _ -> Char.chr (Lw_util.Det_rng.int rng 2)))
      in
      Array.iteri
        (fun lane src ->
          Lw_util.Xorbuf.set_lane_bits ~src ~src_pos:0 ~dst ~dst_pos:3 ~len ~lane)
        lanes;
      for j = 0 to len - 1 do
        let expected = ref 0 in
        Array.iteri
          (fun q src -> expected := !expected lor (Char.code (Bytes.get src j) lsl q))
          lanes;
        Alcotest.(check int) (Printf.sprintf "len=%d byte=%d" len j) !expected
          (Char.code (Bytes.get dst (3 + j)))
      done)
    [ 1; 8; 13; 64 ];
  Alcotest.check_raises "lane range"
    (Invalid_argument "Xorbuf.set_lane_bits: lane out of range") (fun () ->
      Lw_util.Xorbuf.set_lane_bits ~src:(Bytes.make 1 '\x00') ~src_pos:0
        ~dst:(Bytes.make 1 '\x00') ~dst_pos:0 ~len:1 ~lane:8)

let test_bitops () =
  Alcotest.(check int32) "rotl32" 0x00000001l (Lw_util.Bitops.rotl32 0x80000000l 1);
  Alcotest.(check int) "popcount" 3 (Lw_util.Bitops.popcount 0b1011);
  Alcotest.(check int) "log2_ceil 1" 0 (Lw_util.Bitops.log2_ceil 1);
  Alcotest.(check int) "log2_ceil 5" 3 (Lw_util.Bitops.log2_ceil 5);
  Alcotest.(check int) "log2_ceil 8" 3 (Lw_util.Bitops.log2_ceil 8);
  Alcotest.(check int) "log2_floor 5" 2 (Lw_util.Bitops.log2_floor 5);
  Alcotest.(check bool) "pow2 yes" true (Lw_util.Bitops.is_power_of_two 64);
  Alcotest.(check bool) "pow2 no" false (Lw_util.Bitops.is_power_of_two 48);
  Alcotest.(check bool) "pow2 zero" false (Lw_util.Bitops.is_power_of_two 0);
  Alcotest.(check int) "bit" 1 (Lw_util.Bitops.bit 0b100 2);
  Alcotest.(check int) "bit_msb top" 1 (Lw_util.Bitops.bit_msb 0b100 ~width:3 0);
  Alcotest.(check int) "bit_msb bottom" 0 (Lw_util.Bitops.bit_msb 0b100 ~width:3 2);
  Alcotest.(check int) "ceil_div" 3 (Lw_util.Bitops.ceil_div 9 4);
  Alcotest.(check int) "ceil_div exact" 2 (Lw_util.Bitops.ceil_div 8 4);
  Alcotest.(check int) "round_up" 12 (Lw_util.Bitops.round_up 9 ~multiple:4)

let test_det_rng_determinism () =
  let a = Lw_util.Det_rng.create 42L and b = Lw_util.Det_rng.create 42L in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same" (Lw_util.Det_rng.next_int64 a) (Lw_util.Det_rng.next_int64 b)
  done

let test_det_rng_split_independence () =
  let a = Lw_util.Det_rng.create 42L in
  let c = Lw_util.Det_rng.split a in
  Alcotest.(check bool) "diverge" true
    (Lw_util.Det_rng.next_int64 a <> Lw_util.Det_rng.next_int64 c)

let test_det_rng_bounds () =
  let rng = Lw_util.Det_rng.of_string_seed "bounds" in
  for _ = 1 to 500 do
    let v = Lw_util.Det_rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 100 do
    let f = Lw_util.Det_rng.float rng 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0. && f < 2.5)
  done

let test_det_rng_bytes () =
  let rng = Lw_util.Det_rng.of_string_seed "bytes" in
  List.iter
    (fun n -> Alcotest.(check int) "len" n (String.length (Lw_util.Det_rng.bytes rng n)))
    [ 0; 1; 7; 8; 9; 100 ]

let test_det_rng_shuffle_permutes () =
  let rng = Lw_util.Det_rng.of_string_seed "shuffle" in
  let a = Array.init 100 (fun i -> i) in
  Lw_util.Det_rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_stats_summary () =
  let s = Lw_util.Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "count" 5 s.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.stddev

let test_stats_percentile_interpolation () =
  Alcotest.(check (float 1e-9)) "p25" 1.5 (Lw_util.Stats.percentile [| 1.; 2.; 3. |] 25.);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Lw_util.Stats.percentile [| 3.; 1.; 2. |] 0.);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Lw_util.Stats.percentile [| 3.; 1.; 2. |] 100.)

let test_ascii_bar () =
  let out = Lw_repro.Ascii_chart.bar ~width:10 [ ("aa", 10.); ("b", 5.); ("c", 0.) ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "three rows" 3 (List.length lines);
  (match lines with
  | [ a; b; c ] ->
      Alcotest.(check bool) "full bar" true
        (String.length a >= 14 && String.sub a 4 10 = String.make 10 '#');
      Alcotest.(check bool) "half bar" true
        (let hashes = List.length (String.split_on_char '#' b) - 1 in
         hashes = 5);
      Alcotest.(check bool) "empty bar" true (not (String.contains c '#'))
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check string) "no data" "(no data)\n" (Lw_repro.Ascii_chart.bar [])

let test_ascii_line_and_cdf () =
  let out =
    Lw_repro.Ascii_chart.line ~width:20 ~height:5 [ (0., 0.); (1., 1.); (2., 4.) ]
  in
  Alcotest.(check bool) "has stars" true (String.contains out '*');
  Alcotest.(check bool) "has axis" true (String.contains out '+');
  (* constant series doesn't divide by zero *)
  let flat = Lw_repro.Ascii_chart.line ~width:10 ~height:3 [ (1., 2.); (2., 2.) ] in
  Alcotest.(check bool) "flat ok" true (String.contains flat '*');
  let cdf = Lw_repro.Ascii_chart.cdf ~width:20 ~height:5 [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check bool) "cdf renders" true (String.contains cdf '*');
  Alcotest.(check string) "cdf empty" "(no data)\n" (Lw_repro.Ascii_chart.cdf [||])

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"det_rng int covers all residues" ~count:20
    QCheck.(int_range 2 30)
    (fun bound ->
      let rng = Lw_util.Det_rng.of_string_seed (string_of_int bound) in
      let seen = Array.make bound false in
      for _ = 1 to bound * 50 do
        seen.(Lw_util.Det_rng.int rng bound) <- true
      done;
      Array.for_all (fun x -> x) seen)

let prop_xor_associative =
  QCheck.Test.make ~name:"xor associativity" ~count:100
    QCheck.(triple (string_of_size Gen.(1 -- 64)) small_string small_string)
    (fun (a, _, _) ->
      let n = String.length a in
      let rng = Lw_util.Det_rng.of_string_seed a in
      let b = Lw_util.Det_rng.bytes rng n and c = Lw_util.Det_rng.bytes rng n in
      String.equal
        (Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor a b) c)
        (Lw_util.Xorbuf.xor a (Lw_util.Xorbuf.xor b c)))

let props = List.map QCheck_alcotest.to_alcotest [ prop_rng_int_uniformish; prop_xor_associative ]

let () =
  Alcotest.run "lw_util"
    [
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "decode cases" `Quick test_hex_decode_cases;
        ] );
      ( "xorbuf",
        [
          Alcotest.test_case "basic" `Quick test_xor_basic;
          Alcotest.test_case "offsets" `Quick test_xor_into_offsets;
          Alcotest.test_case "bounds" `Quick test_xor_bounds;
          Alcotest.test_case "bounds overflow" `Quick test_xor_bounds_overflow;
          Alcotest.test_case "is_zero" `Quick test_is_zero;
          Alcotest.test_case "lane kernel" `Quick test_xor_buckets_lanes;
          Alcotest.test_case "extent lane kernel" `Quick test_xor_extents_lanes;
          Alcotest.test_case "extent visit order" `Quick test_extent_order;
          Alcotest.test_case "nonzero_end" `Quick test_nonzero_end;
          Alcotest.test_case "lane bit packing" `Quick test_set_lane_bits;
        ] );
      ("crc32", [ Alcotest.test_case "against a bitwise reference" `Quick test_crc32 ]);
      ("bitops", [ Alcotest.test_case "all" `Quick test_bitops ]);
      ( "det_rng",
        [
          Alcotest.test_case "determinism" `Quick test_det_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_det_rng_split_independence;
          Alcotest.test_case "bounds" `Quick test_det_rng_bounds;
          Alcotest.test_case "bytes" `Quick test_det_rng_bytes;
          Alcotest.test_case "shuffle permutes" `Quick test_det_rng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolation;
        ] );
      ( "ascii-chart",
        [
          Alcotest.test_case "bar" `Quick test_ascii_bar;
          Alcotest.test_case "line and cdf" `Quick test_ascii_line_and_cdf;
        ] );
      ("properties", props);
    ]
