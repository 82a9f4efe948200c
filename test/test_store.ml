(* Epoch-versioned storage engine suite (`dune build @store`):
   Lw_store unit tests, the writer/seal-vs-naive-reference QCheck
   property, the layers that ride on the engine (Lw_pir.Store pending
   batches, Universe_store round-trips, the sharded front-end's zero-copy
   shard views and their epoch pinning), snapshot range views and the
   client-side page-visit pinning. *)

open Lightweb
module Store = Lw_store
module Snapshot = Lw_store.Snapshot
module Writer = Lw_store.Writer

let pad size s =
  if String.length s >= size then String.sub s 0 size
  else s ^ String.make (size - String.length s) '\000'

let zeros size = String.make size '\000'

(* ---------------- engine basics ---------------- *)

let test_engine_empty () =
  let st = Store.create ~domain_bits:4 ~bucket_size:32 () in
  Alcotest.(check int) "epoch 0" 0 (Store.current_epoch st);
  Alcotest.(check int) "size" 16 (Store.size st);
  Alcotest.(check int) "total bytes" (16 * 32) (Store.total_bytes st);
  let snap = Store.current st in
  Alcotest.(check string) "all-zero" (zeros 32) (Snapshot.get snap 7);
  Alcotest.(check bool) "empty" true (Snapshot.is_empty snap 7);
  Alcotest.(check int) "occupied" 0 (Snapshot.occupied snap)

let test_engine_seal_and_read () =
  let st = Store.create ~domain_bits:4 ~bucket_size:32 () in
  let w = Store.writer st in
  Writer.set w 3 "hello";
  Writer.set w 9 "world";
  Alcotest.(check string) "read-your-writes" (pad 32 "hello") (Writer.get w 3);
  Alcotest.(check int) "buffered" 2 (Writer.mutations w);
  (* nothing visible until seal *)
  Alcotest.(check string) "current still empty" (zeros 32)
    (Snapshot.get (Store.current st) 3);
  let snap = Writer.seal w in
  Alcotest.(check int) "epoch 1" 1 (Snapshot.epoch snap);
  Alcotest.(check int) "current epoch" 1 (Store.current_epoch st);
  Alcotest.(check string) "sealed value" (pad 32 "hello") (Snapshot.get snap 3);
  Alcotest.(check string) "other value" (pad 32 "world") (Snapshot.get snap 9);
  Alcotest.(check int) "occupied" 2 (Snapshot.occupied snap);
  (* clear in the next epoch *)
  let w2 = Store.writer st in
  Writer.clear w2 3;
  let snap2 = Writer.seal w2 in
  Alcotest.(check string) "cleared" (zeros 32) (Snapshot.get snap2 3);
  Alcotest.(check string) "untouched survives" (pad 32 "world") (Snapshot.get snap2 9);
  (* the earlier snapshot is immutable *)
  Alcotest.(check string) "old epoch unchanged" (pad 32 "hello") (Snapshot.get snap 3)

let test_engine_cow_blocks () =
  (* 64 buckets x 32 B with 128 B blocks = 16 blocks of 4 buckets *)
  let st = Store.create ~block_bytes:128 ~domain_bits:6 ~bucket_size:32 () in
  Alcotest.(check int) "buckets per block" 4 (Store.block_buckets st);
  Alcotest.(check int) "block count" 16 (Store.n_blocks st);
  let w = Store.writer st in
  for i = 0 to 63 do
    Writer.set w i (Printf.sprintf "gen0-%d" i)
  done;
  let s1 = Writer.seal w in
  (* second epoch touches two blocks: buckets 5,6 (block 1) and 60 (block 15) *)
  let w2 = Store.writer st in
  Writer.set w2 5 "gen1-5";
  Alcotest.(check int) "first touch copies its block" 1 (Writer.dirty_blocks w2);
  Alcotest.(check int) "one block's bytes" 128 (Writer.cow_bytes w2);
  Writer.set w2 6 "gen1-6";
  Alcotest.(check int) "same block free" 1 (Writer.dirty_blocks w2);
  Writer.set w2 60 "gen1-60";
  Alcotest.(check int) "second block" 2 (Writer.dirty_blocks w2);
  Alcotest.(check int) "two blocks' bytes" 256 (Writer.cow_bytes w2);
  let s2 = Writer.seal w2 in
  (* physical diff exposes exactly the copied block ranges *)
  Alcotest.(check (list (pair int int)))
    "diff ranges" [ (4, 4); (60, 4) ] (Snapshot.diff_ranges s1 s2);
  Alcotest.(check string) "new value" (pad 32 "gen1-5") (Snapshot.get s2 5);
  Alcotest.(check string) "shared value" (pad 32 "gen0-40") (Snapshot.get s2 40);
  Alcotest.(check string) "old epoch keeps old value" (pad 32 "gen0-5") (Snapshot.get s1 5)

let test_engine_pin_retire () =
  let st = Store.create ~keep:1 ~domain_bits:4 ~bucket_size:32 () in
  let seal_one tag =
    let w = Store.writer st in
    Writer.set w 0 tag;
    Writer.seal w
  in
  ignore (seal_one "e1");
  (* keep=1: sealing epoch 2 retires unpinned epoch 1 *)
  ignore (seal_one "e2");
  Alcotest.(check (list int)) "only current live" [ 2 ] (Store.live_epochs st);
  (match Store.pin st ~epoch:1 with
  | Error Store.Retired -> ()
  | Error Store.Ahead -> Alcotest.fail "epoch 1 reported ahead"
  | Ok _ -> Alcotest.fail "retired epoch pinned");
  (match Store.pin st ~epoch:9 with
  | Error Store.Ahead -> ()
  | Error Store.Retired -> Alcotest.fail "future epoch reported retired"
  | Ok _ -> Alcotest.fail "future epoch pinned");
  (* a pin holds an epoch across later seals *)
  let pinned =
    match Store.pin st ~epoch:2 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "current epoch must pin"
  in
  ignore (seal_one "e3");
  Alcotest.(check (list int)) "pinned epoch survives" [ 2; 3 ] (Store.live_epochs st);
  Alcotest.(check string) "pinned bytes stable" (pad 32 "e2") (Snapshot.get pinned 0);
  Store.unpin st pinned;
  Alcotest.(check (list int)) "unpin retires it" [ 3 ] (Store.live_epochs st);
  Alcotest.(check int) "oldest" 3 (Store.oldest_epoch st)

let test_engine_stale_writer () =
  let st = Store.create ~domain_bits:4 ~bucket_size:32 () in
  let w1 = Store.writer st in
  let w2 = Store.writer st in
  Writer.set w1 0 "first";
  Writer.set w2 1 "second";
  ignore (Writer.seal w1);
  (match Writer.seal w2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stale writer sealed");
  (* a sealed writer refuses further writes too *)
  match Writer.set w1 2 "late" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "sealed writer accepted a write"

(* ---------------- QCheck: engine vs naive full-copy reference --------- *)

(* Any interleaving of writer mutations and seals must yield snapshots
   indistinguishable from the naive implementation that copies the whole
   database at every seal. 16 buckets x 16 B with 32 B blocks keeps the
   CoW machinery (2 buckets/block) fully exercised. *)

type op = Set of int * int | Clear of int | Seal

let gen_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map2 (fun i v -> Set (i, v)) (int_bound 15) (int_bound 99));
        (2, map (fun i -> Clear i) (int_bound 15));
        (2, return Seal);
      ]
  in
  list_size (0 -- 40) op

let pp_op = function
  | Set (i, v) -> Printf.sprintf "Set(%d,%d)" i v
  | Clear i -> Printf.sprintf "Clear %d" i
  | Seal -> "Seal"

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"snapshots equal naive full-copy reference" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops)) gen_ops)
    (fun ops ->
      let bucket_size = 16 in
      let st = Store.create ~block_bytes:32 ~domain_bits:4 ~bucket_size () in
      let reference = Array.make 16 (zeros bucket_size) in
      let sealed = ref [] in
      let w = ref (Store.writer st) in
      List.iter
        (fun op ->
          match op with
          | Set (i, v) ->
              let value = Printf.sprintf "v%d-%d" i v in
              Writer.set !w i value;
              reference.(i) <- pad bucket_size value
          | Clear i ->
              Writer.clear !w i;
              reference.(i) <- zeros bucket_size
          | Seal ->
              let snap = Writer.seal !w in
              (* re-pin so later retirement cannot reclaim it *)
              (match Store.pin st ~epoch:(Snapshot.epoch snap) with
              | Ok s -> sealed := (s, Array.copy reference) :: !sealed
              | Error _ -> failwith "freshly sealed epoch must pin");
              w := Store.writer st)
        ops;
      let ok =
        List.for_all
          (fun (snap, copy) ->
            let all = ref true in
            Array.iteri
              (fun i expected ->
                if not (String.equal (Snapshot.get snap i) expected) then all := false)
              copy;
            !all)
          !sealed
      in
      List.iter (fun (snap, _) -> Store.unpin st snap) !sealed;
      ok)

(* ---------------- QCheck: extent-bounded answers ---------------- *)

(* The scan reads each bucket only up to its extent, so an extent that
   fell short of a bucket's last non-zero byte would drop bytes from an
   answer. Across interleavings of inserts (some ending in zero bytes),
   overwrites with a shorter value (where a stale extent would show),
   clears and seals, every sealed snapshot must keep only zero bytes at
   or past each extent, give each bucket the extent of its model bytes,
   sum them in [scan_bytes], and answer lone keys, batches of 5 and 9
   and a two-way partitioned batch byte for byte as the two-pass
   [eval_bits] + [scan] reference does. Buckets of 520 B (past eight
   64-byte columns, not a multiple of them) with 2-bucket CoW blocks. *)

type xop = Insert of int * int * int | Shorten of int | Erase of int | Seal_x

let xbucket = 520
let xbits = 5

let gen_xops =
  let open QCheck.Gen in
  let i = int_bound ((1 lsl xbits) - 1) in
  let op =
    frequency
      [
        (5, map3 (fun i len z -> Insert (i, len, z)) i (1 -- xbucket) (0 -- 140));
        (3, map (fun i -> Shorten i) i);
        (2, map (fun i -> Erase i) i);
        (2, return Seal_x);
      ]
  in
  list_size (1 -- 40) op

let pp_xop = function
  | Insert (i, len, z) -> Printf.sprintf "Insert(%d,%d,%d)" i len z
  | Shorten i -> Printf.sprintf "Shorten %d" i
  | Erase i -> Printf.sprintf "Erase %d" i
  | Seal_x -> "Seal"

(* [len] non-zero bytes, the last [z] of them zeroed *)
let xvalue i len z =
  String.init len (fun j -> if j >= len - z then '\000' else Char.chr (1 + ((i + j) mod 255)))

let model_extent b =
  let e = Lw_util.Xorbuf.nonzero_end (Bytes.of_string b) ~pos:0 ~len:(String.length b) in
  min (String.length b) ((e + 63) land lnot 63)

let check_extent_snapshot snap model drbg =
  let server = Lw_pir.Server.of_snapshot snap in
  let size = 1 lsl xbits in
  let extents_ok =
    List.for_all
      (fun i ->
        let e = Snapshot.extent snap i in
        e = model_extent model.(i)
        && Lw_util.Xorbuf.is_zero (String.sub (Snapshot.get snap i) e (xbucket - e)))
      (List.init size Fun.id)
  in
  let sum = Array.fold_left (fun a b -> a + model_extent b) 0 model in
  let keys =
    Array.init 9 (fun q ->
        let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits:xbits ~alpha:((q * 11) mod size) drbg in
        if q land 1 = 0 then k0 else k1)
  in
  let reference = Array.map (fun k -> Lw_pir.Server.scan server (Lw_pir.Server.eval_bits server k)) keys in
  let agree got n = Array.for_all2 String.equal got (Array.sub reference 0 n) in
  extents_ok
  && Snapshot.scan_bytes snap = sum
  && Array.for_all2 String.equal (Array.map (Lw_pir.Server.answer server) keys) reference
  && agree (Lw_pir.Server.answer_batch server (Array.sub keys 0 5)) 5
  && agree (Lw_pir.Server.answer_batch server keys) 9
  && agree (Lw_pir.Server.answer_partitioned ~partitions:2 server keys) 9

let prop_extent_answers_match_reference =
  QCheck.Test.make ~name:"extent-bounded answers equal the two-pass reference" ~count:150
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_xop ops)) gen_xops)
    (fun ops ->
      let st = Store.create ~block_bytes:(2 * xbucket) ~domain_bits:xbits ~bucket_size:xbucket () in
      let model = Array.make (1 lsl xbits) (zeros xbucket) in
      let drbg = Lw_crypto.Drbg.create ~seed:"extent-prop" in
      let w = ref (Store.writer st) in
      let ok = ref true in
      let seal () =
        let snap = Writer.seal !w in
        ok := !ok && check_extent_snapshot snap model drbg;
        w := Store.writer st
      in
      List.iter
        (function
          | Insert (i, len, z) ->
              let v = xvalue i len (min z len) in
              Writer.set !w i v;
              model.(i) <- pad xbucket v
          | Shorten i ->
              let cur = Lw_util.Xorbuf.nonzero_end (Bytes.of_string model.(i)) ~pos:0 ~len:xbucket in
              let v = String.sub model.(i) 0 (cur / 2) in
              Writer.set !w i v;
              model.(i) <- pad xbucket v
          | Erase i ->
              Writer.clear !w i;
              model.(i) <- zeros xbucket
          | Seal_x -> seal ())
        ops;
      seal ();
      !ok)

(* ---------------- Lw_pir.Store on the engine ---------------- *)

let test_pir_store_pending () =
  let open Lw_pir in
  let s = Store.create ~domain_bits:8 ~bucket_size:64 () in
  Alcotest.(check int) "epoch 0 before publish" 0
    (Lw_store.current_epoch (Store.engine s));
  (match Store.insert s ~key:"alpha" ~value:"1" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "insert failed");
  Alcotest.(check bool) "buffered" true (Store.pending_mutations s > 0);
  (* read-your-writes before any epoch exists *)
  Alcotest.(check (option string)) "find sees pending" (Some "1") (Store.find s "alpha");
  Alcotest.(check int) "still epoch 0" 0 (Lw_store.current_epoch (Store.engine s));
  let snap = Store.publish s in
  Alcotest.(check int) "publish seals epoch 1" 1 (Lw_store.Snapshot.epoch snap);
  Alcotest.(check int) "no pending left" 0 (Store.pending_mutations s);
  (* re-inserting the same key overwrites without growing the count
     (the Option.is_none regression this PR fixed) *)
  (match Store.insert s ~key:"alpha" ~value:"2" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "overwrite failed");
  Alcotest.(check int) "count stays 1" 1 (Store.count s);
  Alcotest.(check (option string)) "overwrite wins" (Some "2") (Store.find s "alpha");
  (* publish is a no-op when nothing is pending *)
  ignore (Store.publish s);
  let e_after = Lw_store.current_epoch (Store.engine s) in
  ignore (Store.publish s);
  Alcotest.(check int) "idle publish mints nothing" e_after
    (Lw_store.current_epoch (Store.engine s))

(* ---------------- Universe_store round-trip ---------------- *)

let site_code domain =
  Printf.sprintf
    {|
  fn plan(path, state) {
    if (path == "" || path == "/") { return [%S + "/front.json"]; }
    return [%S + path + ".json"];
  }
  fn render(path, state, data) {
    if (data[0] == null) { return "404"; }
    return get(data[0], "body", "(empty)");
  }
|}
    domain domain

let make_universe () =
  let u = Universe.create ~name:"store-suite" Universe.default_geometry in
  let site =
    {
      Publisher.domain = "news.example";
      code = site_code "news.example";
      pages =
        [
          ("/front.json", Lw_json.Json.Obj [ ("body", Lw_json.Json.String "Front") ]);
          ("/a.json", Lw_json.Json.Obj [ ("body", Lw_json.Json.String "Story A") ]);
        ];
    }
  in
  match Publisher.push u ~publisher:"pub" site with
  | Ok report -> (u, report)
  | Error e -> Alcotest.fail e

let test_publish_epochs () =
  let u, report = make_universe () in
  Alcotest.(check bool) "code epoch minted" true (report.Publisher.code_epoch >= 1);
  Alcotest.(check bool) "data epoch minted" true (report.Publisher.data_epoch >= 1);
  (* nothing pending after a push: publish_updates is a stable no-op *)
  let e = Universe.publish_updates u in
  Alcotest.(check (pair int int))
    "idle publish stable" e (Universe.publish_updates u);
  (* a second push seals strictly newer epochs *)
  let site2 =
    {
      Publisher.domain = "wiki.example";
      code = site_code "wiki.example";
      pages = [ ("/front.json", Lw_json.Json.Obj [ ("body", Lw_json.Json.String "W") ]) ];
    }
  in
  match Publisher.push u ~publisher:"pub2" site2 with
  | Error e -> Alcotest.fail e
  | Ok r2 ->
      Alcotest.(check bool) "epochs advance" true
        (r2.Publisher.code_epoch > report.Publisher.code_epoch
        && r2.Publisher.data_epoch > report.Publisher.data_epoch)

let test_universe_roundtrip () =
  let u, _ = make_universe () in
  match Universe_store.import (Universe_store.export u) with
  | Error e -> Alcotest.failf "import failed: %s" e
  | Ok u2 ->
      Alcotest.(check (list (pair string string)))
        "owners" (Universe.domains u) (Universe.domains u2);
      Alcotest.(check (list string)) "paths" (Universe.data_paths u) (Universe.data_paths u2);
      List.iter
        (fun path ->
          Alcotest.(check (option string))
            ("data " ^ path)
            (Universe.data_value u path) (Universe.data_value u2 path))
        (Universe.data_paths u);
      Alcotest.(check (option string))
        "code" (Universe.code_source u "news.example")
        (Universe.code_source u2 "news.example");
      (* exporting again is byte-stable *)
      Alcotest.(check string) "export fixpoint"
        (Lw_json.Json.to_string (Universe_store.export u))
        (Lw_json.Json.to_string (Universe_store.export u2));
      (* the imported universe's PIR servers serve the imported epoch *)
      let d0, d1 = Universe.data_servers u2 in
      (match
         Zltp_client.connect
           ~rng:(Lw_crypto.Drbg.create ~seed:"store-roundtrip")
           [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ]
       with
      | Error e -> Alcotest.failf "connect failed: %s" e
      | Ok client ->
          (match Zltp_client.get client "news.example/front.json" with
          | Ok (Some v) ->
              Alcotest.(check (option string))
                "served = stored"
                (Universe.data_value u2 "news.example/front.json")
                (Some v)
          | Ok None -> Alcotest.fail "imported page missing over PIR"
          | Error e -> Alcotest.fail e);
          Zltp_client.close client)

let test_universe_malformed () =
  (* malformed documents are Errors, never exceptions *)
  (match Universe_store.import (Lw_json.Json.String "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "string document imported");
  (match Universe_store.import (Lw_json.Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty document imported");
  (match
     Universe_store.import
       (Lw_json.Json.Obj [ ("format", Lw_json.Json.Number 999.) ])
   with
  | Error e ->
      Alcotest.(check bool) "names the version" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "future format imported");
  (* a file that is not JSON at all *)
  let path = Filename.temp_file "lw-store-test" ".json" in
  let oc = open_out path in
  output_string oc "this is { not json";
  close_out oc;
  (match Universe_store.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage file loaded");
  Sys.remove path;
  (* and save/load of a real universe round-trips through disk *)
  let u, _ = make_universe () in
  let path2 = Filename.temp_file "lw-store-test" ".json" in
  (match Universe_store.save u ~path:path2 with
  | Error e -> Alcotest.fail e
  | Ok () -> (
      match Universe_store.load ~path:path2 with
      | Error e -> Alcotest.fail e
      | Ok u2 ->
          Alcotest.(check (list string))
            "disk round-trip" (Universe.data_paths u) (Universe.data_paths u2)));
  Sys.remove path2

(* ---------------- sharded front-end over snapshot views ---------------- *)

let answer_of snap key = Lw_pir.Server.answer (Lw_pir.Server.of_snapshot snap) key

(* A refresh moves every shard view to the new epoch at once; the sharded
   backend refuses a pin on any epoch but the one its views serve. *)
let test_frontend_epoch_refusal () =
  let domain_bits = 6 and bucket_size = 32 in
  let st = Store.create ~block_bytes:128 ~domain_bits ~bucket_size () in
  let w = Store.writer st in
  for i = 0 to 63 do
    Writer.set w i (Printf.sprintf "fe0-%d" i)
  done;
  ignore (Writer.seal w);
  let fe = Zltp_frontend.of_store st ~shard_bits:2 in
  Alcotest.(check int) "serves epoch 1" 1 (Zltp_frontend.announced_epoch fe);
  let rng = Lw_crypto.Drbg.create ~seed:"fe-epoch" in
  let k0, _ = Lw_dpf.Dpf.gen ~domain_bits ~alpha:11 rng in
  let answer () =
    Result.map
      (fun shares -> shares.(0))
      (Zltp_frontend.answer_batch_result fe (Zltp_frontend.current fe) [| k0 |])
  in
  (match answer () with
  | Ok share ->
      Alcotest.(check string) "epoch-1 share" (answer_of (Store.current st) k0) share
  | Error e -> Alcotest.fail e);
  let w2 = Store.writer st in
  Writer.set w2 11 "fe1-11";
  Writer.set w2 49 "fe1-49";
  ignore (Writer.seal w2);
  Alcotest.(check int) "every view moved" 4 (Zltp_frontend.refresh fe);
  Alcotest.(check int) "nothing left to move" 0 (Zltp_frontend.refresh fe);
  Alcotest.(check int) "serves epoch 2" 2 (Zltp_frontend.announced_epoch fe);
  (match answer () with
  | Ok share ->
      Alcotest.(check string) "epoch-2 share" (answer_of (Store.current st) k0) share
  | Error e -> Alcotest.fail e);
  let module B = (val Zltp_backend.sharded fe : Zltp_backend.S) in
  let refused epoch code =
    match B.pin ~epoch with
    | Ok _ -> Alcotest.failf "pin on epoch %d accepted" epoch
    | Error (c, _) -> Alcotest.(check int) (Printf.sprintf "epoch %d refused" epoch) code c
  in
  refused 1 Zltp_wire.err_epoch_retired;
  refused 3 Zltp_wire.err_epoch_ahead

(* Both roles pin their sharded views at epoch 1, the publisher seals
   epoch 2 and both front-ends refresh, then the pinned views answer. The
   shares must still reconstruct epoch 1's bucket, not epoch 2's: a
   front-end that rewrites shard bytes in place on refresh fails here. *)
let test_frontend_pinned_views_survive_refresh () =
  let domain_bits = 6 and bucket_size = 32 and alpha = 37 in
  let st = Store.create ~block_bytes:128 ~domain_bits ~bucket_size () in
  let w = Store.writer st in
  for i = 0 to 63 do
    Writer.set w i (Printf.sprintf "e1-%d" i)
  done;
  ignore (Writer.seal w);
  let role () =
    let fe = Zltp_frontend.of_store st ~shard_bits:2 in
    (fe, Zltp_backend.sharded fe)
  in
  let fe_a, backend_a = role () and fe_b, backend_b = role () in
  let pin (backend : Zltp_backend.t) =
    let module B = (val backend : Zltp_backend.S) in
    match B.pin ~epoch:1 with
    | Error (_, e) -> Alcotest.fail e
    | Ok view -> fun k ->
        (match B.answer view k with Ok share -> share | Error (_, e) -> Alcotest.fail e)
  in
  let answer_a = pin backend_a and answer_b = pin backend_b in
  let w2 = Store.writer st in
  Writer.set w2 alpha "e2-changed";
  ignore (Writer.seal w2);
  ignore (Zltp_frontend.refresh fe_a);
  ignore (Zltp_frontend.refresh fe_b);
  let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha (Lw_crypto.Drbg.create ~seed:"fe-race") in
  Alcotest.(check string) "epoch-1 bytes"
    (pad bucket_size (Printf.sprintf "e1-%d" alpha))
    (Lw_util.Xorbuf.xor (answer_a k0) (answer_b k1))

(* ---------------- snapshot range views ---------------- *)

(* Geometry with views inside one CoW block, exactly one block, and
   spanning several: [block_bits] ranges over the whole domain. *)
let view_geometry =
  QCheck.make
    ~print:(fun (d, sb, bb, bucket, alphas) ->
      Printf.sprintf "domain_bits=%d shard_bits=%d block_bits=%d bucket=%d alphas=[%s]" d sb bb
        bucket (String.concat ";" (List.map string_of_int alphas)))
    QCheck.Gen.(
      int_range 2 8 >>= fun d ->
      int_range 1 (d - 1) >>= fun sb ->
      int_range 0 d >>= fun bb ->
      int_range 1 40 >>= fun bucket ->
      list_size (int_range 1 5) (int_range 0 ((1 lsl d) - 1)) >>= fun alphas ->
      return (d, sb, bb, bucket, alphas))

let xor_all shares =
  match shares with
  | [] -> ""
  | first :: rest -> List.fold_left Lw_util.Xorbuf.xor first rest

let prop_views_match_snapshot =
  QCheck.Test.make ~name:"shard views = whole snapshot (get, answers)" ~count:80
    view_geometry
    (fun (domain_bits, shard_bits, block_bits, bucket_size, alphas) ->
      let st =
        Store.create ~block_bytes:(bucket_size lsl block_bits) ~domain_bits ~bucket_size ()
      in
      let w = Store.writer st in
      Writer.fill_random w (Lw_util.Det_rng.of_string_seed "views");
      let snap = Writer.seal w in
      let rem = domain_bits - shard_bits in
      let views =
        List.init (1 lsl shard_bits) (fun i -> Snapshot.sub snap ~base:(i lsl rem) ~domain_bits:rem)
      in
      let gets_agree =
        List.for_all
          (fun (i, v) ->
            Snapshot.size v = 1 lsl rem
            && List.for_all
                 (fun j -> Snapshot.get v j = Snapshot.get snap ((i lsl rem) + j))
                 (List.init (1 lsl rem) Fun.id))
          (List.mapi (fun i v -> (i, v)) views)
      in
      let drbg = Lw_crypto.Drbg.create ~seed:"views-keys" in
      let keys =
        Array.of_list
          (List.mapi
             (fun q alpha ->
               let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
               if q land 1 = 0 then k0 else k1)
             alphas)
      in
      let whole = Lw_pir.Server.of_snapshot snap in
      let servers = List.map Lw_pir.Server.of_snapshot views in
      let subs = Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits) keys in
      let single_agree =
        Array.for_all2
          (fun k sub ->
            Lw_pir.Server.answer whole k
            = xor_all (List.mapi (fun i s -> Lw_pir.Server.answer s sub.(i)) servers))
          keys subs
      in
      let batch_whole = Lw_pir.Server.answer_batch whole keys in
      let batch_views =
        List.mapi
          (fun i s -> Lw_pir.Server.answer_batch s (Array.map (fun sub -> sub.(i)) subs))
          servers
      in
      let batch_agree =
        Array.for_all Fun.id
          (Array.mapi (fun q w -> w = xor_all (List.map (fun b -> b.(q)) batch_views)) batch_whole)
      in
      let fe = Zltp_frontend.of_store st ~shard_bits in
      let frontend_agrees =
        Array.for_all (fun k -> Zltp_frontend.answer fe k = Lw_pir.Server.answer whole k) keys
        && Zltp_frontend.answer_batch fe keys = batch_whole
      in
      gets_agree && single_agree && batch_agree && frontend_agrees)

let test_view_bounds () =
  let st = Store.create ~block_bytes:128 ~domain_bits:6 ~bucket_size:32 () in
  let snap = Store.pin_latest st in
  let view = Snapshot.sub snap ~base:16 ~domain_bits:4 in
  Alcotest.(check int) "view size" 16 (Snapshot.size view);
  Alcotest.(check bool) "whole view is the snapshot" true
    (Snapshot.sub snap ~base:0 ~domain_bits:6 == snap);
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let oob = "Lw_store.Snapshot: index out of range" in
  raises "get past the view" oob (fun () -> Snapshot.get view 16);
  raises "get below the view" oob (fun () -> Snapshot.get view (-1));
  raises "is_empty past the view" oob (fun () -> Snapshot.is_empty view 16);
  raises "block past the view" "Lw_store.Snapshot: block out of range" (fun () ->
      Snapshot.xor_block_into_lanes view ~base:8 ~count:9 ~bits:(Bytes.make 9 '\001') ~bits_pos:0
        ~stride:9 ~dsts:[| Bytes.make 32 '\000' |]);
  let bad_sub = "Lw_store.Snapshot.sub: range out of bounds" in
  raises "sub past the end" bad_sub (fun () -> Snapshot.sub snap ~base:56 ~domain_bits:4);
  raises "sub wider than parent" bad_sub (fun () -> Snapshot.sub view ~base:0 ~domain_bits:5);
  raises "negative base" bad_sub (fun () -> Snapshot.sub snap ~base:(-1) ~domain_bits:2);
  raises "unpin a view" "Lw_store.unpin: snapshot is a range view" (fun () -> Store.unpin st view);
  raises "diff a view" "Lw_store.Snapshot.diff_ranges: snapshot is a range view" (fun () ->
      Snapshot.diff_ranges snap view);
  (* [pin] names an epoch, so it cannot be handed a view; what it returns
     is whole *)
  (match Store.pin st ~epoch:0 with
  | Ok pinned ->
      Alcotest.(check int) "pin returns a whole snapshot" 64 (Snapshot.size pinned);
      Store.unpin st pinned
  | Error _ -> Alcotest.fail "pin failed");
  Store.unpin st snap

(* ---------------- client page-visit pinning ---------------- *)

let visit_domain_bits = 6
let visit_bucket_size = 32

let fill_epoch st g =
  let w = Store.writer st in
  for i = 0 to (1 lsl visit_domain_bits) - 1 do
    Writer.set w i (Printf.sprintf "visit-%d-gen-%d" i g)
  done;
  ignore (Writer.seal w)

let visit_expected g i = pad visit_bucket_size (Printf.sprintf "visit-%d-gen-%d" i g)

let connect_versioned st seed =
  (* both logical servers wrap the same engine, like Universe does *)
  let s0 =
    Zltp_server.create ~server_id:"a" ~blob_size:visit_bucket_size
      (Zltp_backend.versioned st)
  in
  let s1 =
    Zltp_server.create ~server_id:"b" ~blob_size:visit_bucket_size
      (Zltp_backend.versioned st)
  in
  Zltp_client.connect
    ~rng:(Lw_crypto.Drbg.create ~seed)
    [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ]

let test_client_visit_pins_epoch () =
  let st = Store.create ~domain_bits:visit_domain_bits ~bucket_size:visit_bucket_size () in
  fill_epoch st 0;
  match connect_versioned st "visit-pin" with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      Zltp_client.begin_visit client;
      (match Zltp_client.get_raw_index client 3 with
      | Ok b -> Alcotest.(check string) "first fetch" (visit_expected 0 3) b
      | Error e -> Alcotest.fail e);
      Alcotest.(check (option int)) "visit pinned epoch 1" (Some 1)
        (Zltp_client.current_epoch client);
      (* the publisher seals epoch 2 mid-visit; the keep window still
         holds epoch 1, so the rest of the visit stays on it *)
      fill_epoch st 1;
      (match Zltp_client.get_raw_index client 9 with
      | Ok b -> Alcotest.(check string) "mid-visit fetch stays gen 0"
                  (visit_expected 0 9) b
      | Error e -> Alcotest.fail e);
      Alcotest.(check (option int)) "still epoch 1" (Some 1)
        (Zltp_client.current_epoch client);
      Alcotest.(check int) "no resyncs" 0 (Zltp_client.epoch_resyncs client);
      Zltp_client.end_visit client;
      Zltp_client.close client

let test_client_resync_after_retirement () =
  (* keep=1: the moment epoch 2 seals, epoch 1 is gone; the next op hits
     err_epoch_retired, re-syncs transparently and answers epoch 2 *)
  let st =
    Store.create ~keep:1 ~domain_bits:visit_domain_bits ~bucket_size:visit_bucket_size ()
  in
  fill_epoch st 0;
  match connect_versioned st "visit-resync" with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      (match Zltp_client.get_raw_index client 5 with
      | Ok b -> Alcotest.(check string) "gen 0 before" (visit_expected 0 5) b
      | Error e -> Alcotest.fail e);
      fill_epoch st 1;
      (match Zltp_client.get_raw_index client 5 with
      | Ok b -> Alcotest.(check string) "gen 1 after resync" (visit_expected 1 5) b
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "re-synced" true (Zltp_client.epoch_resyncs client >= 1);
      Zltp_client.close client

let () =
  Alcotest.run "store"
    [
      ( "engine",
        [
          Alcotest.test_case "empty at epoch 0" `Quick test_engine_empty;
          Alcotest.test_case "seal and read" `Quick test_engine_seal_and_read;
          Alcotest.test_case "CoW blocks" `Quick test_engine_cow_blocks;
          Alcotest.test_case "pin and retire" `Quick test_engine_pin_retire;
          Alcotest.test_case "stale writer" `Quick test_engine_stale_writer;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
          QCheck_alcotest.to_alcotest prop_extent_answers_match_reference;
        ] );
      ("pir store", [ Alcotest.test_case "pending batches" `Quick test_pir_store_pending ]);
      ( "universe",
        [
          Alcotest.test_case "push seals epochs" `Quick test_publish_epochs;
          Alcotest.test_case "export/import round-trip" `Quick test_universe_roundtrip;
          Alcotest.test_case "malformed documents" `Quick test_universe_malformed;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "epoch-mismatch refusal" `Quick test_frontend_epoch_refusal;
          Alcotest.test_case "pinned views survive refresh" `Quick
            test_frontend_pinned_views_survive_refresh;
        ] );
      ( "views",
        [
          Alcotest.test_case "bounds and whole-snapshot calls" `Quick test_view_bounds;
          QCheck_alcotest.to_alcotest prop_views_match_snapshot;
        ] );
      ( "client",
        [
          Alcotest.test_case "visit pins an epoch" `Quick test_client_visit_pins_epoch;
          Alcotest.test_case "resync after retirement" `Quick
            test_client_resync_after_retirement;
        ] );
    ]
