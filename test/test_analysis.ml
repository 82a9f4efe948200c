(* lw_analysis: the lint pass and the dynamic obliviousness checker.

   Three layers: (1) front-end fixtures: the rules read the compiler's
   typed tree, so names in strings and comments raise nothing, names
   resolve through opens and aliases, and findings carry their lines,
   (2) one known-bad and one known-good fixture per rule and analysis
   (plus pragma suppression), each typed against the built libraries,
   (3) the CI gates — the
   analyzer runs over the repo's own lib/ and must come back clean, so
   every future change is linted by the code it lands next to, and the
   reachability gate reads the build's typed trees for modules and
   interface values nothing outside the tests uses. *)

open Lw_analysis

(* ------------------------- rule fixtures ------------------------- *)

(* Each fixture is scanned under a virtual path so the path-scoped
   rules apply exactly as they would in the real tree. *)
let findings_for ?(path = "lib/crypto/fixture.ml") src =
  let r = Analyzer.scan_source ~path src in
  List.map (fun f -> f.Report.rule) r.Analyzer.findings

let count_rule rule rules = List.length (List.filter (( = ) rule) rules)

(* Kernel objects are read in the build context, whatever the working
   directory. *)
let built rel = Filename.concat Front.build_root rel

(* ------------------------- front end ------------------------- *)

(* What the compiler makes of a source decides what the rules see: a
   name inside a string or a comment is no code, no literal inside a
   comment may hide the code after it, and a name is the value the typer
   resolved it to. Each fixture sits under lib/core/zltp_server.ml, where
   server-abort (failwith), nondeterminism (Random) and raw-timestamp
   apply. *)
let front src = findings_for ~path:"lib/core/zltp_server.ml" src

let test_lexer_idents_and_keywords () =
  Alcotest.(check (list string)) "dotted name read whole" [ "ct-equality" ]
    (findings_for "let x a b = String.equal a b");
  Alcotest.(check (list string)) "deep path read whole" []
    (findings_for "let x a b = Lw_crypto.Ct.equal a b");
  Alcotest.(check (list string)) "a path holding Random. is not Random" []
    (front
       "module Not_random = struct let int n = n end\n\
        let x rng = Not_random.int 6 + Lw_util.Det_rng.int rng 6");
  Alcotest.(check (list string)) "a module name is a name" [ "nondeterminism" ]
    (front "let roll () = let open Random in int 6")

let test_lexer_strings_opaque () =
  Alcotest.(check (list string)) "names inside a string" []
    (front {|let x y = "failwith if Random.int" ^ y|});
  Alcotest.(check (list string)) "behind an escaped quote" []
    (front "let x = \"a\\\"b Random.int\" in x");
  Alcotest.(check (list string)) "inside a quoted string" []
    (front "let x = {|failwith inside|} in x");
  Alcotest.(check (list string)) "the same name as code" [ "server-abort" ]
    (front "let x = failwith \"inside\"")

let test_lexer_comments () =
  Alcotest.(check (list string)) "names inside a nested comment" []
    (front "(* failwith (* nested Random.int *) tail *) let x = 1");
  Alcotest.(check (list string)) "a string in a comment hides its *)" [ "server-abort" ]
    (front "(* \"*)\" still comment *) let y = failwith \"z\"")

let test_lexer_char_vs_tyvar () =
  Alcotest.(check (list string)) "a quote character opens no string" [ "nondeterminism" ]
    (front "let q = '\"' let r = Random.int 3");
  Alcotest.(check (list string)) "a type variable opens no character" [ "nondeterminism" ]
    (front "let f (x : 'a) = ignore x; Random.int 3")

let test_lexer_comment_nesting_regressions () =
  let after comment = front (comment ^ " let a = Random.int 1") in
  Alcotest.(check (list string)) "char-quote in comment" [ "nondeterminism" ]
    (after "(* '\"' *)");
  Alcotest.(check (list string)) "quoted string in comment hides *)" [ "nondeterminism" ]
    (after "(* {| *) |} *)");
  Alcotest.(check (list string)) "commented code stays opaque" []
    (front "(* {| *) failwith |} *) let c = 3");
  Alcotest.(check (list string)) "prose apostrophe" [ "nondeterminism" ]
    (after "(* it's the client's key *)");
  Alcotest.(check (list string)) "nested with literals" [ "nondeterminism" ]
    (after "(* outer (* '\"' \"*)\" *) tail *)")

let test_lexer_line_numbers () =
  let r =
    Analyzer.scan_source ~path:"lib/core/zltp_server.ml" "let a = 1\nlet b =\n  Random.int 3\n"
  in
  Alcotest.(check (list (pair string int))) "finding at line 3" [ ("nondeterminism", 3) ]
    (List.map (fun f -> (f.Report.rule, f.Report.line)) r.Analyzer.findings)

(* A name outside the code a rule names, through a local open or a
   module alias, is still that name: [Unix.gettimeofday] under either is
   a raw timestamp and a nondeterministic source. *)
let test_front_resolved_names () =
  let both = [ "nondeterminism"; "raw-timestamp" ] in
  let sorted src = List.sort String.compare (front src) in
  Alcotest.(check (list string)) "under let open" both
    (sorted "let now () = let open Unix in gettimeofday ()");
  Alcotest.(check (list string)) "through a module alias" both
    (sorted "module U = Unix\nlet now () = U.gettimeofday ()");
  Alcotest.(check (list string)) "a same-named function is not it" []
    (sorted "let gettimeofday () = 0.\nlet now () = gettimeofday ()")

(* The rules read the typed tree, so a source without one raises its
   typed-tree finding and nothing else, here not the ct-equality the
   first line would give. The finding carries the compiler's line and
   text: the parser meets the end of input (line 3) still wanting the
   operand [let broken = (] opened, and a stray [)] stops it on its own
   line. *)
let test_parse_error_alone () =
  let parse_error src =
    let r = Analyzer.scan_source ~path:"lib/crypto/fixture.ml" src in
    List.map (fun f -> (f.Report.rule, f.Report.line, f.Report.message)) r.Analyzer.findings
  in
  (match parse_error "let check a b = String.equal a b\nlet broken = (\n" with
  | [ (rule, line, message) ] ->
      Alcotest.(check (pair string int)) "typed-tree alone, at the end of input"
        ("typed-tree", 3) (rule, line);
      Alcotest.(check bool) ("the compiler's text, not the exception: " ^ message) true
        (String.starts_with ~prefix:"no typed tree: Syntax error" message)
  | fs -> Alcotest.failf "%d findings, want one typed-tree" (List.length fs));
  Alcotest.(check (list (pair string int))) "a stray paren at its line" [ ("typed-tree", 2) ]
    (List.map (fun (r, l, _) -> (r, l)) (parse_error "let a = 1\nlet b = )\nlet c = 3\n"))

let test_rule_ct_equality () =
  let bad = "let check a b = String.equal a b" in
  Alcotest.(check int) "bad caught" 1 (count_rule "ct-equality" (findings_for bad));
  let bad_cmp = "let order a b = compare a b" in
  Alcotest.(check int) "bare compare caught" 1
    (count_rule "ct-equality" (findings_for bad_cmp));
  let bad_secret_eq = "(* lw-lint: secret tag *)\nlet ok tag exp = tag = exp" in
  Alcotest.(check int) "secret = caught" 1
    (count_rule "ct-equality" (findings_for bad_secret_eq));
  (* the operator's operands, however written *)
  Alcotest.(check int) "parenthesised secret caught" 1
    (count_rule "ct-equality"
       (findings_for "(* lw-lint: secret tag *)\nlet ok tag exp = (tag) = exp"));
  Alcotest.(check int) "Stdlib.( = ) caught" 1
    (count_rule "ct-equality"
       (findings_for "(* lw-lint: secret tag *)\nlet ok tag exp = Stdlib.( = ) tag exp"));
  let good = "let check a b = Lw_crypto.Ct.equal a b" in
  Alcotest.(check int) "good clean" 0 (count_rule "ct-equality" (findings_for good));
  (* let-bindings of secret-flagged names are binders, not comparisons *)
  let binder = "(* lw-lint: secret mask *)\nlet f bit = let mask = bit land 1 in mask" in
  Alcotest.(check int) "binder not flagged" 0
    (count_rule "ct-equality" (findings_for binder));
  (* outside the sensitive dirs the rule is silent *)
  Alcotest.(check int) "out of scope" 0
    (count_rule "ct-equality" (findings_for ~path:"lib/sim/fixture.ml" bad))

(* A branch on a secret-flagged name is the taint analysis's branch
   sink: each dirty fixture gives one taint finding, at the branch. *)
let taint_lines ?(path = "lib/crypto/fixture.ml") src =
  (Analyzer.scan_source ~path src).Analyzer.findings
  |> List.filter_map (fun f -> if f.Report.rule = "taint" then Some f.Report.line else None)

let test_rule_secret_branch () =
  let bad = "(* lw-lint: secret cond *)\nlet sel cond a b = if cond then a else b" in
  Alcotest.(check (list int)) "if caught" [ 2 ] (taint_lines bad);
  let bad_match =
    "(* lw-lint: secret bit *)\nlet f bit = match bit with 0 -> 1 | _ -> 2"
  in
  Alcotest.(check (list int)) "match caught" [ 2 ] (taint_lines bad_match);
  (* the field path k.cond still trips the flag on cond *)
  let bad_field =
    "(* lw-lint: secret cond *) type k = { cond : bool }\nlet f k = if k.cond then 1 else 0"
  in
  Alcotest.(check (list int)) "field access caught" [ 2 ] (taint_lines bad_field);
  let good =
    "(* lw-lint: secret cond *)\n\
     let sel cond a b = Lw_crypto.Ct.select_int (Bool.to_int cond) a b"
  in
  Alcotest.(check (list int)) "arithmetic select clean" [] (taint_lines good);
  (* without a secret flag there is nothing to protect *)
  let unflagged = "let sel cond a b = if cond then a else b" in
  Alcotest.(check (list int)) "unflagged silent" [] (taint_lines unflagged)

(* The batch kernel's shape in OCaml: a lane's selection bit must
   become a word mask arithmetically. A kernel that skips unselected
   records with a branch makes the scan's timing and trace depend on the
   query. *)
let test_rule_secret_branch_lane_kernel () =
  let path = "lib/util/fixture.ml" in
  let dirty =
    "(* lw-lint: secret ma *)\n\
     let lane ~bits ~p0 ~s0 ~src ~dst =\n\
    \  let ma = (Char.code (Bytes.unsafe_get bits p0) lsr s0) land 1 in\n\
    \  if ma = 1 then Lw_util.Xorbuf.xor_into ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:8\n"
  in
  Alcotest.(check (list int)) "branch on a lane bit caught" [ 4 ] (taint_lines ~path dirty);
  let clean =
    "(* lw-lint: secret ma *)\n\
     let lane ~bits ~p0 ~s0 ~src ~dst =\n\
    \  let b = (Char.code (Bytes.unsafe_get bits p0) lsr s0) land 1 in\n\
    \  let ma = Int64.neg (Int64.of_int b) in\n\
    \  let s = Bytes.get_int64_ne src 0 in\n\
    \  Bytes.set_int64_ne dst 0 (Int64.logxor (Int64.logand s ma) (Bytes.get_int64_ne dst 0))\n"
  in
  Alcotest.(check (list int)) "masked lane clean" [] (taint_lines ~path clean)

(* The C kernels (the scan kernel, the AES-MMO tree steps with the
   client's key generation, and the channel primitives) handle selection
   bits, seeds, control bits, the query index, keys, plaintexts and
   scalars, and lw_lint does not parse C,
   so their no-branch rule is kept here on tokens: with comments and
   literals stripped, a kernel may contain no conditional keyword, no
   ternary and no short-circuit operator. Its only control flow is [for]
   loops over public bounds. *)
let c_branch_keywords = [ "if"; "else"; "switch"; "case"; "goto"; "while" ]

let c_branch_tokens src =
  let n = String.length src in
  let found = ref [] and line = ref 1 in
  let add tok = found := (!line, tok) :: !found in
  let next i = if i + 1 < n then Some src.[i + 1] else None in
  let is_word c =
    c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  (* skip past the end of a block comment, counting newlines *)
  let rec skip_comment i =
    if i + 1 >= n then n
    else if src.[i] = '*' && src.[i + 1] = '/' then i + 2
    else begin
      if src.[i] = '\n' then incr line;
      skip_comment (i + 1)
    end
  in
  let rec skip_literal q i =
    if i >= n then n
    else if src.[i] = '\\' then skip_literal q (i + 2)
    else if src.[i] = q then i + 1
    else skip_literal q (i + 1)
  in
  let rec go i =
    if i < n then
      match (src.[i], next i) with
      | '\n', _ ->
          incr line;
          go (i + 1)
      | '/', Some '*' -> go (skip_comment (i + 2))
      | '/', Some '/' ->
          go (Option.value (String.index_from_opt src i '\n') ~default:n)
      | (('"' | '\'') as q), _ -> go (skip_literal q (i + 1))
      | '?', _ ->
          add "?";
          go (i + 1)
      | '&', Some '&' ->
          add "&&";
          go (i + 2)
      | '|', Some '|' ->
          add "||";
          go (i + 2)
      | c, _ when is_word c ->
          let j = ref i in
          while !j < n && is_word src.[!j] do incr j done;
          let w = String.sub src i (!j - i) in
          if List.mem w c_branch_keywords then add w;
          go !j
      | _ -> go (i + 1)
  in
  go 0;
  List.rev !found

let rec c_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then c_files p
         else if Filename.check_suffix f ".c" then [ p ]
         else [])

let test_c_kernel_no_branch () =
  let tokens = Alcotest.(check (list (pair int string))) in
  tokens "branches caught"
    [ (1, "if"); (1, "&&"); (2, "?"); (3, "while"); (3, "||"); (4, "switch"); (4, "case");
      (5, "else"); (5, "goto") ]
    (c_branch_tokens
       "if (m && x) d ^= s;\nd = m ? s : 0;\nwhile (a || b) ;\nswitch (q) { case 1: ; }\nelse goto out;");
  tokens "comments, literals and bit operators clean" []
    (c_branch_tokens
       "/* if (m) else\n while */ d ^= s & m; // goto ?\nconst char *t = \"if ? &&\"; c = '?';\nx = a | b;\nfor (o = 0; o < n; o++) ifx = elsewhere;");
  let lib =
    match Analyzer.resolve_dir "lib" with
    | Some d -> d
    | None -> Alcotest.fail "could not locate lib/ from the test runner"
  in
  let kernels =
    [
      Filename.concat (Filename.concat lib "util") "xorbuf_stubs.c";
      Filename.concat (Filename.concat lib "util") "crc32_stubs.c";
      Filename.concat (Filename.concat lib "crypto") "aes_stubs.c";
      Filename.concat (Filename.concat lib "crypto") "channel_stubs.c";
    ]
  in
  Alcotest.(check (list string))
    "the scan, CRC, AES and channel kernels are the only C files under lib/"
    (List.sort String.compare kernels)
    (List.sort String.compare (c_files lib));
  List.iter
    (fun kernel ->
      let src = In_channel.with_open_bin kernel In_channel.input_all in
      tokens ("no branch in " ^ Filename.basename kernel) [] (c_branch_tokens src))
    kernels

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The token gate above reads the C source; this reads what GCC made of
   it. A masked select the compiler turned into a branch would add a
   conditional jump, so each kernel function's count of them is pinned,
   as GCC 12 -O2 compiles them on x86-64 (another compiler or target
   prints why and skips). Every jump counted is a loop bound or
   one of the entry guards and unroll exits GCC adds to a loop, and
   every loop is over public bounds. *)
let pinned_jumps =
  [
    (* xor_lanes_*: the run's extent AND/OR (vector loop and tail, over
       the entry count); the stride walk's tile loop and leftover loop
       (over [count] when the extents are one value); in each of their
       two inlined tiles, the lane groups (lanes / 8), the mask loop
       (lanes in the group), and the column loop (whole columns below
       the bound), its lane loop and the byte loop with its lane loop,
       once for the group and once for a lone lane *)
    ("xor_lanes_avx512", 46);
    ("xor_lanes_avx2", 46);
    ("xor_lanes_baseline", 46);
    (* sorted_*, the sorted walk: its chunks (over [count] by 512), and
       in each chunk the sorted tiles and the leftover rows (over the
       records with a non-zero extent); in each of their two inlined
       tiles the same loops as above; in a sorted tile, also its rows
       (the tile depth) with their own column, lane and byte loops (from
       the tile's bound up to each row's extent) *)
    ("sorted_avx512", 51);
    ("sorted_avx2", 51);
    ("sorted_baseline", 51);
    (* extent_order, the sorted walk's counting sort, one function for
       every build: the bin width (halving the bucket's columns until
       they fit), clearing the bins in use, the histogram and the
       scatter (over the chunk's records) and the prefix sum (over the
       bins in use, from the top) *)
    ("extent_order", 10);
    (* crc_pclmul, the CRC's folding build: the choice of four lanes
       (64 bytes or more) and their fold loop (guard and back-edge, over
       the blocks by four); the one lane's first block (when the four
       did not run) and its fold loop (guard and back-edge, over the
       blocks left); the reduction to the register (when a block was
       read); the four-byte loop (guard and back-edge, over the 0-15
       bytes past the blocks) and the gather of the last 0-3 bytes
       (guard and back-edge) *)
    ("crc_pclmul", 11);
    (* crc_baseline, slice-by-8: the eight-byte loop and the byte loop,
       guard and back-edge each, over the length; lw_crc_update, the
       call, runs straight through to the build *)
    ("crc_baseline", 4);
    ("lw_crc_update", 0);
    (* level_*: chunks of parents (n / CHUNK), the seed tweaks and the
       cipher over the chunk's blocks, and the children of the chunk *)
    ("level_aesni", 10);
    ("level_bitsliced", 10);
    (* leaves_*: chunks of terminal nodes, the tweaks and the cipher,
       the nodes of the chunk, and the copy of [count] leaf bytes *)
    ("leaves_aesni", 10);
    ("leaves_bitsliced", 10);
    (* gen_*, both parties' key generation: the tree levels (entry guard
       and back-edge, over [levels]); in each level the XOR of the four
       cipher outputs with their inputs and the clearing of their
       control bits, two loops over constant counts that GCC keeps as
       16-byte vector loops; then the one-hot's 128 position compares
       (a vector loop) and the 16 multiplies that pack them into bits
       (the seeds' selects and the leaf's XORs are straight-line and the
       cipher is a call) *)
    ("gen_aesni", 6);
    ("gen_bitsliced", 6);
    (* chacha_*, the keystream XOR over [len]: the 1 KiB batches
       (guard and back-edge, over len / 1024), in each the rounds loop
       (guard and back-edge, over [rounds]), the final add of the input
       words and the XOR of the sixteen transposed blocks (the transpose
       itself is unrolled); the wide tail (one pass or none, from the
       block count), the copy of its bytes into the stack buffer (its
       4-, 2- and 1-byte ends, 3), its rounds loop (2), final add and
       XOR; the scalar tail (guard and back-edge, over the blocks left),
       its rounds loop (2) and its byte loop (guard and back-edge, over
       the block's length). The baseline splits the final add of each
       sixteen-block pass in two (2 more). *)
    ("chacha_avx512", 20);
    ("chacha_baseline", 22);
    (* drbg_ratchet, a DRBG draw's tail and ratchet at 20 rounds: its
       blocks (guard and back-edge, over the bytes left plus 32), their
       rounds loop (a back-edge alone, the count being a constant), and
       the copy of the bytes left into the output (their 8-byte words,
       guard and back-edge, the test for 8 or more and the 4-, 2- and
       1-byte ends); lw_chacha_drbg, the draw, calls the build for its
       whole blocks and runs straight through *)
    ("drbg_ratchet", 9);
    ("lw_chacha_drbg", 0);
    (* poly_blocks: the pairs of 16-byte blocks (guard and back-edge,
       over n / 2) and the odd block (none or one, from n's low bit) *)
    ("poly_blocks", 3);
    (* the AEAD calls: the padded last block of the AAD and of the
       ciphertext (0 or 1 each, from their lengths); the tag compare is
       unrolled *)
    ("lw_aead_seal", 2);
    ("lw_aead_open", 2);
    (* lw_poly1305_mac: the padded last block (0 or 1, from the length) *)
    ("lw_poly1305_mac", 1);
    (* x25519: the ladder's 255 steps, the only loop (the limb loops and
       the conditional swaps are unrolled); fe_sqn: its [n] squarings,
       a constant at each call of the inversion chain; fe_mul and
       fe_invert run straight through *)
    ("x25519", 1);
    ("fe_sqn", 1);
    ("fe_mul", 0);
    ("fe_invert", 0);
  ]

(* Each function's conditional jumps in [objdump -d] text: every
   [j<cc>] mnemonic but [jmp]. A function with none counts 0, so a
   straight-line function can be pinned at 0. *)
let conditional_jumps listing =
  let counts = Hashtbl.create 16 and current = ref "" in
  List.iter
    (fun line ->
      let n = String.length line in
      if n > 2 && String.ends_with ~suffix:">:" line then
        match String.index_opt line '<' with
        | Some i ->
            current := String.sub line (i + 1) (n - i - 3);
            if not (Hashtbl.mem counts !current) then Hashtbl.replace counts !current 0
        | None -> ()
      else
        match String.split_on_char '\t' line with
        | _ :: insn :: _ ->
            let mnemonic = List.hd (String.split_on_char ' ' insn) in
            if String.length mnemonic > 1 && mnemonic.[0] = 'j' && mnemonic <> "jmp" then
              Hashtbl.replace counts !current
                (1 + Option.value (Hashtbl.find_opt counts !current) ~default:0)
        | _ -> ())
    (String.split_on_char '\n' listing);
  counts

let run_to_string cmd =
  let out = Filename.temp_file "lw_objdump" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (cmd ^ " > " ^ Filename.quote out ^ " 2>/dev/null") in
      (code, In_channel.with_open_bin out In_channel.input_all))

let test_c_kernel_jumps_pinned () =
  Alcotest.(check (list (pair string int))) "jumps counted per function"
    [ ("f", 2); ("g", 1); ("h", 0) ]
    (List.sort compare
       (List.of_seq
          (Hashtbl.to_seq
             (conditional_jumps
                "0000000000000000 <f>:\n   0:\tjne    10 <f+0x10>\n   2:\tjmp    0 <f>\n   4:\tjae    0 <f>\n0000000000000010 <g>:\n  10:\tjb     10 <g>\n  12:\tret\n0000000000000020 <h>:\n  20:\tret\n"))));
  let objects =
    List.filter Sys.file_exists
      (List.map built
         [
           "lib/util/xorbuf_stubs.o";
           "lib/util/crc32_stubs.o";
           "lib/crypto/aes_stubs.o";
           "lib/crypto/channel_stubs.o";
         ])
  in
  Alcotest.(check int) "every kernel object built" 4 (List.length objects);
  (* the object's .comment section names its compiler, "GCC: (<vendor>) 12.x.y" *)
  let gcc12 obj =
    let bytes = In_channel.with_open_bin obj In_channel.input_all in
    contains bytes "GCC: (" && contains bytes ") 12."
  in
  let listings =
    List.map
      (fun obj ->
        (obj, run_to_string ("objdump -d --no-show-raw-insn " ^ Filename.quote obj)))
      objects
  in
  let x86_64 (_, (_, listing)) = contains listing "file format elf64-x86-64" in
  if List.exists (fun (_, (code, _)) -> code <> 0) listings then
    print_endline "objdump did not run: conditional jumps not checked"
  else if not (List.for_all x86_64 listings && List.for_all gcc12 objects) then
    print_endline "counts are pinned for GCC 12 on x86-64: conditional jumps not checked"
  else begin
    let counts = Hashtbl.create 16 in
    List.iter
      (fun (_, (_, listing)) -> Hashtbl.iter (Hashtbl.replace counts) (conditional_jumps listing))
      listings;
    List.iter
      (fun (fn, pinned) ->
        Alcotest.(check (option int)) (fn ^ " conditional jumps") (Some pinned)
          (Hashtbl.find_opt counts fn))
      pinned_jumps
  end

let test_rule_poly_compare () =
  (* the Store.insert bug shape: option tested with polymorphic = *)
  let bad_opt = "let fresh t key = Hashtbl.find_opt t key = None" in
  Alcotest.(check int) "option = None caught" 1
    (count_rule "poly-compare" (findings_for ~path:"lib/pir/fixture.ml" bad_opt));
  Alcotest.(check int) "also in lib/store" 1
    (count_rule "poly-compare" (findings_for ~path:"lib/store/fixture.ml" bad_opt));
  let bad_ne = "let stale t key = Hashtbl.find_opt t key <> None" in
  Alcotest.(check int) "<> None caught" 1
    (count_rule "poly-compare" (findings_for ~path:"lib/pir/fixture.ml" bad_ne));
  let bad_cmp = "let order a b = compare a b" in
  Alcotest.(check int) "bare compare caught" 1
    (count_rule "poly-compare" (findings_for ~path:"lib/store/fixture.ml" bad_cmp));
  (* the fixes the rule pushes you towards are clean *)
  let good = "let fresh t key = Option.is_none (Hashtbl.find_opt t key)" in
  Alcotest.(check int) "Option.is_none clean" 0
    (count_rule "poly-compare" (findings_for ~path:"lib/pir/fixture.ml" good));
  let good_typed = "let order a b = Int.compare a b" in
  Alcotest.(check int) "typed compare clean" 0
    (count_rule "poly-compare" (findings_for ~path:"lib/pir/fixture.ml" good_typed));
  (* binders are not comparisons: let-bindings and record fields *)
  let binder = "let prior = None in ignore prior" in
  Alcotest.(check int) "let binder clean" 0
    (count_rule "poly-compare" (findings_for ~path:"lib/pir/fixture.ml" binder));
  let record =
    "type r = { count : int; pending : int option }\nlet make () = { count = 0; pending = None }"
  in
  Alcotest.(check int) "record field clean" 0
    (count_rule "poly-compare" (findings_for ~path:"lib/pir/fixture.ml" record));
  (* an optional argument's default is no comparison; a constrained
     constructor still is one *)
  Alcotest.(check int) "optional default clean" 0
    (count_rule "poly-compare"
       (findings_for ~path:"lib/pir/fixture.ml" "let f ?(x = None) () = x"));
  Alcotest.(check int) "constrained None caught" 1
    (count_rule "poly-compare"
       (findings_for ~path:"lib/pir/fixture.ml" "let h x = x = (None : int option)"));
  (* scoped to the storage layers *)
  Alcotest.(check int) "lib/core out of scope" 0
    (count_rule "poly-compare" (findings_for ~path:"lib/core/fixture.ml" bad_opt))

let test_rule_nondeterminism () =
  let bad = "let roll () = Random.int 6" in
  let path = "lib/sim/fixture.ml" in
  Alcotest.(check int) "Random caught" 1
    (count_rule "nondeterminism" (findings_for ~path bad));
  let bad_time = "let now () = Unix.gettimeofday ()" in
  Alcotest.(check int) "wall clock caught" 1
    (count_rule "nondeterminism" (findings_for ~path bad_time));
  let good = "let roll rng = Lw_util.Det_rng.int rng 6" in
  Alcotest.(check int) "Det_rng clean" 0
    (count_rule "nondeterminism" (findings_for ~path good));
  (* the designated randomness modules are exempt *)
  Alcotest.(check int) "drbg.ml exempt" 0
    (count_rule "nondeterminism" (findings_for ~path:"lib/crypto/drbg.ml" bad_time));
  (* bin/, bench/ are out of scope: the rule is about lib/ determinism *)
  Alcotest.(check int) "bench exempt" 0
    (count_rule "nondeterminism" (findings_for ~path:"bench/fixture.ml" bad))

let test_rule_raw_timestamp () =
  (* anywhere in lib/ a raw wall-clock read is an error, not a pragma *)
  let bad = "let t0 = Unix.gettimeofday ()" in
  Alcotest.(check int) "gettimeofday caught" 1
    (count_rule "raw-timestamp" (findings_for ~path:"lib/core/fixture.ml" bad));
  Alcotest.(check int) "Sys.time caught" 1
    (count_rule "raw-timestamp"
       (findings_for ~path:"lib/pir/fixture.ml" "let t = Sys.time ()"));
  Alcotest.(check int) "Unix.time caught" 1
    (count_rule "raw-timestamp"
       (findings_for ~path:"lib/net/fixture.ml" "let t = Unix.time ()"));
  let good = "let t0 = Lw_obs.Clock.now (Lw_obs.Span.clock ())" in
  Alcotest.(check int) "obs clock clean" 0
    (count_rule "raw-timestamp" (findings_for ~path:"lib/core/fixture.ml" good));
  (* the structural exemptions: the obs layer itself and the
     entropy/determinism modules. The old lib/net clock shim is gone,
     so a clock.ml outside lib/obs gets no special treatment. *)
  Alcotest.(check int) "lib/obs exempt" 0
    (count_rule "raw-timestamp" (findings_for ~path:"lib/obs/clock.ml" bad));
  Alcotest.(check int) "non-obs clock.ml not exempt" 1
    (count_rule "raw-timestamp" (findings_for ~path:"lib/net/clock.ml" bad));
  Alcotest.(check int) "drbg seeding exempt" 0
    (count_rule "raw-timestamp" (findings_for ~path:"lib/crypto/drbg.ml" bad));
  (* bench/bin are out of scope: the rule pins lib/ to virtual clocks *)
  Alcotest.(check int) "bench out of scope" 0
    (count_rule "raw-timestamp" (findings_for ~path:"bench/fixture.ml" bad))

let test_rule_key_print () =
  let bad = "let dump key = Printf.printf \"%s\" key" in
  Alcotest.(check int) "printf caught" 1 (count_rule "key-print" (findings_for bad));
  let good = "let label key = Printf.sprintf \"%d\" (String.length key)" in
  Alcotest.(check int) "sprintf clean" 0 (count_rule "key-print" (findings_for good));
  Alcotest.(check int) "non-crypto exempt" 0
    (count_rule "key-print" (findings_for ~path:"lib/core/fixture.ml" bad))

let test_rule_server_abort () =
  let bad = "let handle req = if req < 0 then failwith \"boom\" else req" in
  let path = "lib/core/zltp_server.ml" in
  Alcotest.(check int) "failwith caught" 1
    (count_rule "server-abort" (findings_for ~path bad));
  let bad_exit = "let handle req = exit 1" in
  Alcotest.(check int) "exit caught" 1
    (count_rule "server-abort" (findings_for ~path bad_exit));
  let good = "let handle req = Error `Bad_request" in
  Alcotest.(check int) "typed error clean" 0
    (count_rule "server-abort" (findings_for ~path good));
  Alcotest.(check int) "non-server file exempt" 0
    (count_rule "server-abort" (findings_for ~path:"lib/core/universe.ml" bad))

let test_rule_unbounded_wait () =
  let path = "lib/core/zltp_client.ml" in
  let bad_sleep = "let backoff () = Unix.sleepf 0.5" in
  Alcotest.(check int) "bare sleep caught" 1
    (count_rule "unbounded-wait" (findings_for ~path bad_sleep));
  let bad_recv = "let pump ep = ep.Lw_net.Endpoint.recv ()" in
  Alcotest.(check int) "bare recv caught" 1
    (count_rule "unbounded-wait" (findings_for ~path bad_recv));
  let good_clock = "let backoff clock = Lw_obs.Clock.sleep clock 0.5" in
  Alcotest.(check int) "Clock.sleep clean" 0
    (count_rule "unbounded-wait" (findings_for ~path good_clock));
  (* a local function merely named recv is not an endpoint receive *)
  let local_recv = "let recv () = 42" in
  Alcotest.(check int) "local name clean" 0
    (count_rule "unbounded-wait" (findings_for ~path local_recv));
  (* waiver works, and the rule is scoped to lib/core *)
  let waived = "let pump ep = ep.Lw_net.Endpoint.recv () (* lw-lint: allow unbounded-wait *)" in
  Alcotest.(check int) "waiver honoured" 0
    (count_rule "unbounded-wait" (findings_for ~path waived));
  Alcotest.(check int) "out of scope" 0
    (count_rule "unbounded-wait" (findings_for ~path:"lib/net/wan.ml" bad_recv))

let test_rule_process_hygiene () =
  (* spawning/reaping/signalling processes outside lib/cluster *)
  let bad_spawn =
    "let p prog argv = Unix.create_process prog argv Unix.stdin Unix.stdout Unix.stderr"
  in
  Alcotest.(check int) "create_process caught" 1
    (count_rule "process-hygiene" (findings_for ~path:"lib/net/fixture.ml" bad_spawn));
  let bad_reap = "let rec reap () = ignore (Unix.waitpid [] (-1))" in
  Alcotest.(check int) "waitpid caught" 1
    (count_rule "process-hygiene" (findings_for ~path:"lib/core/fixture.ml" bad_reap));
  let bad_kill = "let nuke pid = Unix.kill pid Sys.sigkill" in
  Alcotest.(check int) "kill caught" 1
    (count_rule "process-hygiene" (findings_for ~path:"bin/fixture.ml" bad_kill));
  Alcotest.(check int) "Sys.command caught" 1
    (count_rule "process-hygiene"
       (findings_for ~path:"bench/fixture.ml" "let _ = Sys.command \"ls\""));
  (* the supervisor's home is exempt — it owns the lifecycle *)
  Alcotest.(check int) "lib/cluster exempt" 0
    (count_rule "process-hygiene"
       (findings_for ~path:"lib/cluster/supervisor.ml" (bad_spawn ^ "\n" ^ bad_kill)));
  (* asking the supervisor instead is the clean shape *)
  let good = "let restart sup id = Lw_cluster.Supervisor.kill sup id" in
  Alcotest.(check int) "supervisor API clean" 0
    (count_rule "process-hygiene" (findings_for ~path:"lib/net/fixture.ml" good));
  (* Unix.getpid and friends are not lifecycle calls *)
  Alcotest.(check int) "getpid clean" 0
    (count_rule "process-hygiene"
       (findings_for ~path:"lib/net/fixture.ml" "let me () = Unix.getpid ()"))

let test_pragma_suppression () =
  (* same-line pragma *)
  let r1 =
    Analyzer.scan_source ~path:"lib/crypto/f.ml"
      "let check a b = String.equal a b (* lw-lint: allow ct-equality *)"
  in
  Alcotest.(check int) "same line suppressed" 0 (List.length r1.Analyzer.findings);
  Alcotest.(check int) "counted as suppressed" 1 r1.Analyzer.suppressed;
  (* pragma on the line above *)
  let r2 =
    Analyzer.scan_source ~path:"lib/crypto/f.ml"
      "(* lw-lint: allow ct-equality *)\nlet check a b = String.equal a b"
  in
  Alcotest.(check int) "next line suppressed" 0 (List.length r2.Analyzer.findings);
  (* a pragma for one rule does not silence another *)
  let r3 =
    Analyzer.scan_source ~path:"lib/crypto/f.ml"
      "(* lw-lint: allow key-print *)\nlet check a b = String.equal a b"
  in
  let rules r = List.map (fun f -> f.Report.rule) r.Analyzer.findings in
  (* the pragma that waived nothing is reported beside the finding *)
  Alcotest.(check (list string)) "wrong rule still fires" [ "ct-equality"; "unused-allow" ]
    (List.sort String.compare (rules r3));
  (* and it does not leak beyond the next line *)
  let r4 =
    Analyzer.scan_source ~path:"lib/crypto/f.ml"
      "(* lw-lint: allow ct-equality *)\n\nlet check a b = String.equal a b"
  in
  Alcotest.(check (list string)) "two lines below not covered" [ "ct-equality"; "unused-allow" ]
    (List.sort String.compare (rules r4))

let test_old_ct_select_is_caught () =
  (* the exact shape this PR fixed in lib/crypto/ct.ml: the mask derived
     by branching on the secret condition *)
  let old =
    "(* lw-lint: secret cond *)\n\
     let select cond a b =\n\
    \  let mask = if cond then 0xff else 0 in\n\
    \  ignore mask\n"
  in
  Alcotest.(check (list int)) "one taint finding, on the mask line" [ 3 ]
    (taint_lines ~path:"lib/crypto/ct.ml" old)

(* --------------------- AST analysis fixtures --------------------- *)

(* Each dirty fixture is paired with (1) a clean variant showing the
   blessed idiom scans quiet and, where they could, (2) an assertion
   that the rules alone miss the bug — the analyses follow data and
   control flow that no single name or comparison shows. *)

let rule_findings src ~path =
  let r = Analyzer.scan_source ~analyses:[] ~path src in
  List.map (fun f -> f.Report.rule) r.Analyzer.findings

let test_taint_through_helper () =
  (* the secret reaches the branch inside [choose]; no single line has
     both the flagged name and the branch keyword *)
  let dirty =
    "(* lw-lint: secret key *)\n\
     let choose c a b = if c then a else b\n\
     let use key = choose key 1 2\n"
  in
  let rules = findings_for ~path:"lib/core/fixture.ml" dirty in
  Alcotest.(check bool) "taint caught" true (count_rule "taint" rules >= 1);
  (* same helper, secret routed through data (not control) positions *)
  let clean =
    "(* lw-lint: secret key *)\n\
     let choose c a b = if c then a else b\n\
     let use key = choose true key key\n"
  in
  Alcotest.(check int) "data-position args clean" 0
    (count_rule "taint" (findings_for ~path:"lib/core/fixture.ml" clean));
  (* declassified geometry (a length) may steer control flow *)
  let declass =
    "(* lw-lint: secret key *)\n\
     let choose c a b = if c then a else b\n\
     let use key = choose (String.length key > 3) 1 2\n"
  in
  Alcotest.(check int) "declassified length clean" 0
    (count_rule "taint" (findings_for ~path:"lib/core/fixture.ml" declass))

(* Declassification is by full path: a function of the fixture's own
   that is merely named [length] launders nothing. *)
let test_taint_declassified_by_path () =
  let own =
    "(* lw-lint: secret key *)\n\
     let length k = k + 1\n\
     let use key = if length key > 3 then 1 else 2\n"
  in
  Alcotest.(check (list int)) "a local length is no declassifier" [ 3 ]
    (taint_lines ~path:"lib/core/fixture.ml" own);
  let stdlib =
    "(* lw-lint: secret key *)\nlet use key = if String.length key > 3 then 1 else 2\n"
  in
  Alcotest.(check (list int)) "String.length is one" []
    (taint_lines ~path:"lib/core/fixture.ml" stdlib)

let test_taint_labelled_arguments () =
  (* a call that omits an optional argument binds its positional
     arguments to the unlabelled parameters: the secret reaches [c]'s
     branch, not [n] *)
  let helper =
    "(* lw-lint: secret key *)\n\
     let choose ?(n = 0) c a b = if c then a + n else b\n"
  in
  Alcotest.(check bool) "secret in the branching position caught" true
    (count_rule "taint"
       (findings_for ~path:"lib/core/fixture.ml" (helper ^ "let use key = choose key 1 2\n"))
    >= 1);
  Alcotest.(check int) "secret in data positions clean" 0
    (count_rule "taint"
       (findings_for ~path:"lib/core/fixture.ml" (helper ^ "let use key = choose true key key\n")));
  Alcotest.(check int) "labelled arguments bind by label" 0
    (count_rule "taint"
       (findings_for ~path:"lib/core/fixture.ml"
          "(* lw-lint: secret key *)\n\
           let pick ~c ~a = if c then a else 0\n\
           let use key = pick ~a:key ~c:true\n"))

let test_taint_function_form () =
  (* [let put buf = function ...] matches on a second, implicit
     parameter: a secret passed there reaches a branch, as under
     [let put buf msg = match msg with ...] *)
  let put =
    "(* lw-lint: secret key *)\n\
     let put buf = function `A n -> buf + n | `B -> buf\n"
  in
  let taint src = count_rule "taint" (findings_for ~path:"lib/core/fixture.ml" (put ^ src)) in
  Alcotest.(check bool) "secret matched by function caught" true
    (taint "let use key = put 0 key\n" >= 1);
  Alcotest.(check int) "secret in the data position clean" 0 (taint "let use key = put key `B\n")

let test_taint_dpf_source_to_index () =
  (* a DPF key is secret by construction: using it to index a table
     leaks the query; no pragma needed *)
  let dirty =
    "let f rng buf =\n\
    \  let k0, _ = Lw_dpf.Dpf.gen ~domain_bits:4 ~alpha:1 rng in\n\
    \  Bytes.get buf (Stdlib.Char.code (Lw_dpf.Dpf.serialize k0).[0])\n"
  in
  Alcotest.(check bool) "dpf key indexing caught" true
    (count_rule "taint" (findings_for ~path:"lib/pir/fixture.ml" dirty) >= 1)

let test_taint_partial_application () =
  (* DPF keys drawn through a let-bound partial application keep their
     taint when it is applied, as through a let-bound function *)
  let dirty =
    "let f rng buf indices =\n\
    \  let draw = List.map (fun alpha -> Lw_dpf.Dpf.gen ~domain_bits:4 ~alpha rng) in\n\
    \  let k0, _ = List.hd (draw indices) in\n\
    \  Bytes.get buf (Stdlib.Char.code (Lw_dpf.Dpf.serialize k0).[0])\n"
  in
  Alcotest.(check bool) "partial application caught" true
    (count_rule "taint" (findings_for ~path:"lib/pir/fixture.ml" dirty) >= 1)

let test_taint_leaf_onehot () =
  (* the early-terminated DPF's leaf correction word is one-hot at
     [alpha mod 128]: setting that bit by an indexed write puts the
     client's secret on the address bus *)
  let dirty =
    "(* lw-lint: secret alpha_lo *)\n\
     let onehot alpha_lo =\n\
    \  let cw = Bytes.make 16 '\\000' in\n\
    \  Bytes.set cw (alpha_lo lsr 3) (Char.chr (1 lsl (alpha_lo land 7)));\n\
    \  cw\n"
  in
  Alcotest.(check bool) "indexed one-hot write caught" true
    (count_rule "taint" (findings_for ~path:"lib/dpf/fixture.ml" dirty) >= 1);
  (* [Dpf.gen]'s shape: visit every bit position and compare with
     [alpha_lo] arithmetically; only public loop indices address memory *)
  let clean =
    "(* lw-lint: secret alpha_lo *)\n\
     let eq_bit a b =\n\
    \  let x = a lxor b in\n\
    \  1 - (((x lor (0 - x)) lsr (Sys.int_size - 1)) land 1)\n\
     let onehot alpha_lo =\n\
    \  String.init 16 (fun i ->\n\
    \      let b = ref 0 in\n\
    \      for j = 0 to 7 do\n\
    \        b := !b lor (eq_bit ((8 * i) + j) alpha_lo lsl j)\n\
    \      done;\n\
    \      Char.unsafe_chr !b)\n"
  in
  Alcotest.(check int) "arithmetic one-hot clean" 0
    (count_rule "taint" (findings_for ~path:"lib/dpf/fixture.ml" clean))

let test_taint_seed_table_lookup () =
  (* the DPF's PRG seeds are named secret in prg.ml and dpf.ml: a
     T-table AES round indexes its tables by seed bytes, which puts the
     seed on the address bus for a cache-timing observer *)
  let dirty =
    "(* lw-lint: secret src *)\n\
     let te0 = Array.make 256 0\n\
     let round ~src ~src_pos =\n\
    \  let b = Char.code (Bytes.get src src_pos) in\n\
    \  te0.(b) lxor te0.(b lxor 0x63)\n"
  in
  Alcotest.(check bool) "seed-indexed table lookup caught" true
    (count_rule "taint" (findings_for ~path:"lib/dpf/fixture.ml" dirty) >= 1);
  (* the shape the PRG has now: the seeds go to the C AES-MMO as data *)
  let clean =
    "(* lw-lint: secret src ts *)\n\
     let expand ~src ~ts ~dst ~t_out =\n\
    \  Lw_crypto.Aes128.mmo_level Lw_crypto.Aes128.mmo_fixed_key ~src ~src_pos:0 ~ts ~ts_pos:0\n\
    \    ~n:1 ~cw:(Bytes.make 16 '\\000') ~cw_pos:0 ~cw_bits:0 ~dst ~t_out\n"
  in
  Alcotest.(check int) "seeds handed to the C call clean" 0
    (count_rule "taint" (findings_for ~path:"lib/dpf/fixture.ml" clean))

let test_taint_spir_secret_source () =
  (* the single-server PIR client secret (and the masked query derived
     from it) is secret by construction: branching on it leaks; no
     pragma needed *)
  let dirty =
    "let f hint rng =\n\
    \  let secret, query = Lw_pir.Spir.Client.query hint ~domain_bits:4 ~index:1 rng in\n\
    \  ignore secret;\n\
    \  if query = \"\" then 0 else 1\n"
  in
  Alcotest.(check bool) "spir query branch caught" true
    (count_rule "taint" (findings_for ~path:"lib/core/fixture.ml" dirty) >= 1);
  (* recovery is the declassification boundary: its output is the page
     the caller asked for, and may steer control flow *)
  let clean =
    "let f hint rng answer =\n\
    \  let secret, _query = Lw_pir.Spir.Client.query hint ~domain_bits:4 ~index:1 rng in\n\
    \  match Lw_pir.Spir.Client.recover hint secret answer with\n\
    \  | Ok page -> page\n\
    \  | Error e -> e\n"
  in
  Alcotest.(check int) "recovered page clean" 0
    (count_rule "taint" (findings_for ~path:"lib/core/fixture.ml" clean))

let test_taint_loop_carried_ref () =
  (* taint assigned to a ref late in a loop body must reach a use
     earlier in the next iteration — the dpf-gen shape *)
  let dirty =
    "(* lw-lint: secret alpha *)\n\
     let walk alpha buf =\n\
    \  let t = ref 0 in\n\
    \  for _i = 0 to 7 do\n\
    \    ignore (Bytes.get buf !t);\n\
    \    t := alpha land 1\n\
    \  done\n"
  in
  Alcotest.(check bool) "loop-carried taint caught" true
    (count_rule "taint" (findings_for ~path:"lib/core/fixture.ml" dirty) >= 1)

let test_race_spawned_ref () =
  let dirty =
    "let worker () =\n\
    \  let counter = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> counter := !counter + 1) in\n\
    \  ignore (Domain.join d);\n\
    \  !counter\n"
  in
  let path = "lib/pir/fixture.ml" in
  let rules = findings_for ~path dirty in
  Alcotest.(check bool) "race caught" true (count_rule "race" rules >= 1);
  Alcotest.(check int) "the rules have no race story" 0
    (List.length (rule_findings ~path dirty));
  (* Atomic is the blessed fix *)
  let clean_atomic =
    "let worker () =\n\
    \  let counter = Atomic.make 0 in\n\
    \  let d = Domain.spawn (fun () -> Atomic.incr counter) in\n\
    \  ignore (Domain.join d);\n\
    \  Atomic.get counter\n"
  in
  Alcotest.(check int) "Atomic clean" 0
    (count_rule "race" (findings_for ~path clean_atomic));
  (* ... and so is a mutex held around the access *)
  let clean_mutex =
    "let worker () =\n\
    \  let m = Mutex.create () in\n\
    \  let counter = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> Mutex.protect m (fun () -> incr counter)) in\n\
    \  ignore (Domain.join d);\n\
    \  !counter\n"
  in
  Alcotest.(check int) "Mutex.protect clean" 0
    (count_rule "race" (findings_for ~path clean_mutex))

let test_race_partitioned_scan_fixtures () =
  (* the two shapes the domain-parallel scan chooses between: a shared
     Bytes accumulator XORed by every worker (a data race the lint must
     flag), vs per-worker buffers handed back through Domain.join and
     XOR-reduced by the spawning domain (no shared mutable capture) *)
  let path = "lib/pir/fixture.ml" in
  let dirty =
    "let scan_parallel part part_bytes =\n\
    \  let acc = Bytes.create 32 in\n\
    \  let doms =\n\
    \    List.init 4 (fun w ->\n\
    \        Domain.spawn (fun () ->\n\
    \            Bytes.set acc w (part w);\n\
    \            Bytes.blit (part_bytes w) 0 acc 0 32))\n\
    \  in\n\
    \  List.iter Domain.join doms;\n\
    \  acc\n"
  in
  Alcotest.(check bool) "shared accumulator caught" true
    (count_rule "race" (findings_for ~path dirty) >= 1);
  let clean =
    "let scan_parallel part xor_into =\n\
    \  let doms =\n\
    \    List.init 4 (fun w ->\n\
    \        Domain.spawn (fun () ->\n\
    \            let acc = Bytes.make 32 '\\000' in\n\
    \            Bytes.set acc w (part w);\n\
    \            acc))\n\
    \  in\n\
    \  let parts = List.map Domain.join doms in\n\
    \  match parts with\n\
    \  | first :: rest ->\n\
    \      List.iter (fun p -> xor_into p first) rest;\n\
    \      first\n\
    \  | [] -> Bytes.create 32\n"
  in
  Alcotest.(check int) "per-worker buffers + join reduce clean" 0
    (count_rule "race" (findings_for ~path clean));
  (* the production pattern: per-worker accumulators are picked out of a
     shared array by index — over-approximated as a race by design, so
     it must carry an explicit pragma (as lib/pir/server.ml does) *)
  let pragma =
    "let scan_parallel () =\n\
    \  let accs = Array.init 4 (fun _ -> Bytes.create 32) in\n\
    \  (* lw-lint: allow race lines=3 *)\n\
    \  let doms =\n\
    \    List.init 4 (fun w ->\n\
    \        Domain.spawn (fun () -> Bytes.set (Array.get accs w) 0 'x'))\n\
    \  in\n\
    \  List.iter Domain.join doms;\n\
    \  accs\n"
  in
  Alcotest.(check int) "pragma-acknowledged worker slots clean" 0
    (count_rule "race" (findings_for ~path pragma));
  (* a spawned partial application of a named worker is walked too *)
  let partial =
    "let scan_parallel () =\n\
    \  let acc = Bytes.create 32 in\n\
    \  let worker w () = Bytes.set acc w 'x' in\n\
    \  let doms = List.init 4 (fun w -> Domain.spawn (worker w)) in\n\
    \  List.iter Domain.join doms\n"
  in
  Alcotest.(check bool) "spawned partial application caught" true
    (count_rule "race" (findings_for ~path partial) >= 1);
  (* the serving path's worker entry runs its closure on other domains *)
  let workers =
    "let scan_parallel () =\n\
    \  let acc = Bytes.create 32 in\n\
    \  Lw_pir.Server.run_workers 4 (fun w -> Bytes.set acc w 'x')\n"
  in
  Alcotest.(check bool) "run_workers closure caught" true
    (count_rule "race" (findings_for ~path workers) >= 1)

let test_balance_pin_lifecycle () =
  let path = "lib/core/fixture.ml" in
  (* a call between pin and unpin can raise and leak the pin *)
  let leak_on_raise =
    "let read st =\n\
    \  let snap = Lw_store.pin_latest st in\n\
    \  let v = Lw_store.Snapshot.get snap 0 in\n\
    \  Lw_store.unpin st snap;\n\
    \  v\n"
  in
  let rules = findings_for ~path leak_on_raise in
  Alcotest.(check bool) "leak-on-raise caught" true
    (count_rule "balance" rules >= 1);
  Alcotest.(check int) "the rules have no balance story" 0
    (List.length (rule_findings ~path leak_on_raise));
  (* never released at all *)
  let never =
    "let read st =\n\
    \  let snap = Lw_store.pin_latest st in\n\
    \  Lw_store.Snapshot.get snap 0\n"
  in
  Alcotest.(check bool) "never-released caught" true
    (count_rule "balance" (findings_for ~path never) >= 1);
  (* Fun.protect is the blessed fix *)
  let clean =
    "let read st =\n\
    \  let snap = Lw_store.pin_latest st in\n\
    \  Fun.protect\n\
    \    ~finally:(fun () -> Lw_store.unpin st snap)\n\
    \    (fun () -> Lw_store.Snapshot.get snap 0)\n"
  in
  Alcotest.(check int) "Fun.protect clean" 0
    (count_rule "balance" (findings_for ~path clean));
  (* handing the pin off into a longer-lived structure is also fine *)
  let handoff =
    "type view = { store : Lw_store.t; snap : Lw_store.snapshot }\n\
     let open_view st =\n\
    \  let snap = Lw_store.pin_latest st in\n\
    \  { store = st; snap }\n"
  in
  Alcotest.(check int) "handoff clean" 0
    (count_rule "balance" (findings_for ~path handoff))

(* In [match <pin> with ...] only the [Ok] or [Some] payload is a pin:
   mapping the [Error] payload to a wire refusal is clean, handing the
   [Ok] one back is a handoff, and dropping it is still a leak *)
let test_balance_pin_result_match () =
  let path = "lib/core/fixture.ml" in
  let clean =
    "let pin_store store ~epoch =\n\
    \  match Lw_store.pin store ~epoch with\n\
    \  | Ok snap -> Ok snap\n\
    \  | Error e -> Error (epoch, e)\n"
  in
  Alcotest.(check int) "error payload is not a pin" 0
    (count_rule "balance" (findings_for ~path clean));
  let dirty =
    "let epoch_of store ~epoch =\n\
    \  match Lw_store.pin store ~epoch with\n\
    \  | Ok snap -> Lw_store.Snapshot.epoch snap\n\
    \  | Error _ -> -1\n"
  in
  let found =
    List.filter
      (fun f -> f.Report.rule = "balance")
      (Analyzer.scan_source ~path dirty).Analyzer.findings
  in
  Alcotest.(check (list string)) "the dropped Ok payload, and only it"
    [ "snap" ]
    (List.map (fun f -> if contains f.Report.message "`snap`" then "snap" else f.Report.message) found)

let test_pragma_lines_span () =
  (* one waiver, widened to cover a multi-line expression *)
  let src =
    "(* lw-lint: allow poly-compare lines=3 *)\n\
     let a t k = Hashtbl.find_opt t k = None\n\
     let b t k = Hashtbl.find_opt t k = None\n\
     let c t k = Hashtbl.find_opt t k = None\n\
     let d t k = Hashtbl.find_opt t k = None\n"
  in
  let r = Analyzer.scan_source ~path:"lib/pir/fixture.ml" src in
  Alcotest.(check int) "lines 2-4 waived" 3 r.Analyzer.suppressed;
  Alcotest.(check int) "line 5 still fires" 1 (List.length r.Analyzer.findings);
  (* lines=0 restricts the waiver to the pragma's own line *)
  let r0 =
    Analyzer.scan_source ~path:"lib/pir/fixture.ml"
      "(* lw-lint: allow poly-compare lines=0 *)\nlet a t k = Hashtbl.find_opt t k = None\n"
  in
  Alcotest.(check (list string)) "lines=0 covers nothing below" [ "poly-compare"; "unused-allow" ]
    (List.sort String.compare (List.map (fun f -> f.Report.rule) r0.Analyzer.findings))

(* An allow pragma that suppresses nothing is a finding: dirty, the
   waived line has no finding of that rule, or the pragma names no rule;
   clean, it suppresses a real one. A scan that did not run the rule
   does not judge the pragma. *)
let test_pragma_unused_allow () =
  let rules src = findings_for ~path:"lib/crypto/fixture.ml" src in
  let dirty = "let f a b = a + b (* lw-lint: allow ct-equality *)\n" in
  Alcotest.(check int) "dirty: nothing to suppress" 1 (count_rule "unused-allow" (rules dirty));
  let unknown = "let f a b = a + b (* lw-lint: allow no-such-rule *)\n" in
  Alcotest.(check int) "dirty: names no rule" 1 (count_rule "unused-allow" (rules unknown));
  let clean = "let check a b = String.equal a b (* lw-lint: allow ct-equality *)\n" in
  Alcotest.(check (list string)) "clean: suppresses its finding" [] (rules clean);
  let taint_only =
    Analyzer.scan_source ~analyses:[ "taint"; "unused-allow" ] ~rules:[]
      ~path:"lib/crypto/fixture.ml" dirty
  in
  Alcotest.(check int) "rule not run: not judged" 0 (List.length taint_only.Analyzer.findings)

(* A bare callee under a local open resolves to the opened module's
   definition, [let open M in f x] and [M.(f x)] alike: dirty, the
   opened [branchy] branches on the secret it is handed; clean, the
   opened [masked] does arithmetic only. *)
let test_taint_local_open () =
  let opened =
    ( "lib/crypto/opened.ml",
      "let branchy x = if x > 0 then 1 else 0\nlet masked x = (0 - (x land 1)) land 0xff\n" )
  in
  let taint src =
    Analyzer.scan_sources [ opened; ("lib/crypto/fixture.ml", src) ]
    |> List.concat_map (fun (_, r) -> List.map (fun f -> f.Report.rule) r.Analyzer.findings)
    |> count_rule "taint"
  in
  let secret = "(* lw-lint: secret key *)\n" in
  Alcotest.(check int) "dirty: let open" 1
    (taint (secret ^ "let f key = let open Opened in branchy key\n"));
  Alcotest.(check int) "dirty: M.( )" 1 (taint (secret ^ "let f key = Opened.(branchy key)\n"));
  Alcotest.(check int) "clean: let open" 0
    (taint (secret ^ "let f key = let open Opened in masked key\n"));
  Alcotest.(check int) "clean: M.( )" 0 (taint (secret ^ "let f key = Opened.(masked key)\n"))

(* ------------------------- baseline ------------------------- *)

let finding ?(file = "lib/core/x.ml") ?(scope = "Lightweb.X.send") ?(line = 42) message =
  { (Report.finding "taint" file line message) with scope }

let test_baseline_matching () =
  let f =
    finding ~file:"_build/default/lib/core/x.ml" "secret-tainted value reaches branch condition (m)"
  in
  let tmp = Filename.temp_file "lw_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Baseline.save tmp [ f ];
      let entries = Baseline.load tmp in
      Alcotest.(check int) "one entry" 1 (List.length entries);
      (* matching is line-free and path-normalized: the same finding
         reported from another cwd at another line is still accepted *)
      let moved = { f with file = "../lib/core/x.ml"; line = 7 } in
      let fresh, accepted = Baseline.apply entries [ moved ] in
      Alcotest.(check int) "moved finding accepted" 0 (List.length fresh);
      Alcotest.(check int) "accepted count" 1 accepted)

(* An entry is keyed by the function its findings sit in, not by their
   message: clean, the same flow reworded (sent through a helper) inside
   the same function stays absorbed; dirty, the same finding moved into
   another function is fresh. *)
let test_baseline_keyed_by_function () =
  let f = finding "secret-tainted value reaches branch condition (argument 1 of send_msg)" in
  let tmp = Filename.temp_file "lw_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Baseline.save tmp [ f ];
      let fresh g = List.length (fst (Baseline.apply (Baseline.load tmp) [ g ])) in
      Alcotest.(check int) "clean: a changed message in the same function" 0
        (fresh { f with message = "secret-tainted value reaches branch condition (argument 5)" });
      Alcotest.(check int) "dirty: the same finding in another function" 1
        (fresh { f with scope = "Lightweb.X.receive" }))

(* A baseline entry the scan could have matched but did not is stale: a
   dirty baseline (its finding is gone) reports one, at its line of the
   baseline file; a clean one (its finding is still there) none, and an
   entry outside the scanned paths or rules is not judged. *)
let test_baseline_stale () =
  let f = finding "secret-tainted value reaches branch condition (m)" in
  let tmp = Filename.temp_file "lw_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Baseline.save tmp [ f ];
      let entries = Baseline.load tmp in
      let stale ?(roots = [ "lib" ]) ?rules findings =
        Baseline.stale ~baseline_file:tmp ~roots ~rules entries findings
      in
      Alcotest.(check int) "clean: the entry still matches" 0 (List.length (stale [ f ]));
      (match stale [] with
      | [ s ] ->
          Alcotest.(check string) "dirty: rule" "stale-baseline" s.Report.rule;
          Alcotest.(check string) "dirty: file" tmp s.Report.file;
          (* three header lines, then the entry *)
          Alcotest.(check int) "dirty: line" 4 s.Report.line
      | l -> Alcotest.failf "dirty: expected one stale entry, got %d" (List.length l));
      Alcotest.(check int) "outside the scanned paths" 0
        (List.length (stale ~roots:[ "bin" ] []));
      Alcotest.(check int) "under a scanned file's own path" 1
        (List.length (stale ~roots:[ "../lib/core/x.ml" ] []));
      Alcotest.(check int) "rule not run" 0 (List.length (stale ~rules:[ "race" ] [])))

(* An entry accepts at most its count of findings, and one that takes
   fewer is stale: with count 3, a fourth finding of its key is fresh
   (dirty) where three are all accepted (clean), and two leave the entry
   stale (dirty) where three fill it (clean). [save] writes one entry
   per key with its count. *)
let test_baseline_counts () =
  let at line = finding ~line "secret-tainted value reaches branch condition (argument 1)" in
  let findings n = List.init n (fun i -> at (10 + i)) in
  let tmp = Filename.temp_file "lw_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Baseline.save tmp (findings 3);
      let entries = Baseline.load tmp in
      let lines = String.split_on_char '\n' (In_channel.with_open_text tmp In_channel.input_all) in
      Alcotest.(check string) "save writes the count" "taint\tlib/core/x.ml\tLightweb.X.send\t3"
        (List.nth lines 3);
      let fresh n = List.map (fun f -> f.Report.line) (fst (Baseline.apply entries (findings n))) in
      Alcotest.(check (list int)) "dirty: a fourth finding is fresh" [ 13 ] (fresh 4);
      Alcotest.(check (list int)) "clean: three are accepted" [] (fresh 3);
      Alcotest.(check int) "clean: accepted count" 3 (snd (Baseline.apply entries (findings 3)));
      let stale n =
        Baseline.stale ~baseline_file:tmp ~roots:[ "lib" ] ~rules:None entries (findings n)
      in
      (match stale 2 with
      | [ s ] ->
          Alcotest.(check string) "dirty: rule" "stale-baseline" s.Report.rule;
          Alcotest.(check int) "dirty: line" 4 s.Report.line
      | l -> Alcotest.failf "dirty: expected one stale entry, got %d" (List.length l));
      Alcotest.(check int) "clean: the entry is filled" 0 (List.length (stale 3));
      (* a line without a count is no entry *)
      Alcotest.(check bool) "countless line ignored" true
        (Baseline.parse_line "taint\tlib/core/x.ml\tsecret-tainted value" = None))

let test_baseline_missing_file () =
  Alcotest.(check int) "missing baseline loads empty" 0
    (List.length (Baseline.load "/nonexistent/lint_baseline.txt"))

(* --------------- QCheck: taint is monotone under wrapping --------------- *)

(* Wrapping a secret-tainted expression in taint-preserving context must
   never lose the finding: dataflow survives the refactors that defeat
   the line-based heuristics. *)
let wrappers =
  [|
    (fun e -> Printf.sprintf "(let t = %s in t)" e);
    (fun e -> Printf.sprintf "((fun x -> x) %s)" e);
    (fun e -> Printf.sprintf "(fst (%s, 0))" e);
    (fun e -> Printf.sprintf "(snd (0, %s))" e);
    (fun e -> Printf.sprintf "(%s + 0)" e);
    (fun e -> Printf.sprintf "(if flag then %s else %s)" e e);
    (fun e -> Printf.sprintf "(%s)" e);
  |]

let taint_count_with_index index_expr =
  let src =
    Printf.sprintf
      "(* lw-lint: secret key *)\nlet f buf key flag = Bytes.get buf %s\n"
      index_expr
  in
  let r = Analyzer.scan_source ~path:"lib/core/fixture.ml" src in
  List.length
    (List.filter (fun f -> f.Report.rule = "taint") r.Analyzer.findings)

let prop_taint_monotone =
  QCheck.Test.make ~name:"taint survives expression wrapping" ~count:60
    QCheck.(list_of_size Gen.(0 -- 5) (int_bound (Array.length wrappers - 1)))
    (fun picks ->
      let wrapped =
        List.fold_left (fun e i -> wrappers.(i) e) "key" picks
      in
      taint_count_with_index wrapped >= 1)

(* ------------------------- report ------------------------- *)

let test_report_json_shape () =
  let r =
    Analyzer.scan_source ~path:"lib/crypto/f.ml" "let f a b = String.equal a b"
  in
  let report =
    Report.make ~files_scanned:1 ~findings:r.Analyzer.findings
      ~suppressed:r.Analyzer.suppressed ~elapsed_s:0.001 ()
  in
  let json = Lw_json.Json.of_string (Lw_json.Json.to_string (Report.to_json report)) in
  let open Lw_json.Json in
  Alcotest.(check int) "files" 1 (get_int (member "files_scanned" json));
  Alcotest.(check int) "count" 1 (get_int (member "finding_count" json));
  match get_list (member "findings" json) with
  | [ f ] ->
      Alcotest.(check string) "rule" "ct-equality" (get_string (member "rule" f));
      Alcotest.(check string) "file" "lib/crypto/f.ml" (get_string (member "file" f));
      Alcotest.(check bool) "line positive" true (get_int (member "line" f) > 0)
  | _ -> Alcotest.fail "expected one finding in JSON"

(* ------------------------- the CI gate ------------------------- *)

(* The whole repo — lib/, bin/ and bench/ — must lint clean modulo the
   checked-in baseline: the delta against lint_baseline.txt is empty.
   A fresh finding here is a fresh finding in CI. *)
let test_repo_is_clean () =
  let roots = List.filter_map Analyzer.resolve_dir [ "lib"; "bin"; "bench" ] in
  if List.length roots <> 3 then
    Alcotest.fail "could not locate lib/ bin/ bench/ from the test runner";
  let report = Analyzer.scan_paths roots in
  let baseline =
    match Analyzer.resolve_file "lint_baseline.txt" with
    | Some f -> Baseline.load f
    | None -> []
  in
  let fresh, accepted = Baseline.apply baseline report.Report.findings in
  List.iter
    (fun f ->
      Printf.printf "FRESH: %s:%d: [%s] %s\n" f.Report.file f.Report.line
        f.Report.rule f.Report.message)
    fresh;
  Alcotest.(check int) "fresh findings vs baseline" 0 (List.length fresh);
  Alcotest.(check bool) "baseline entries in use" true
    (accepted >= List.length baseline);
  Alcotest.(check int) "no stale baseline entry" 0
    (List.length
       (Baseline.stale ~baseline_file:"lint_baseline.txt" ~roots ~rules:None baseline
          report.Report.findings));
  Alcotest.(check bool) "scanned a real tree" true (report.Report.files_scanned > 60)

(* The scan fails closed: dirty, a source no build stanza compiles has no
   typed tree, and a built path holding other contents has a stale one;
   each is a typed-tree finding, never a silent skip. Clean, a copy of a
   built source is linted through its tree. *)
let test_missing_typed_tree () =
  let dir = Filename.temp_file "lw_lint_tree" "" in
  Sys.remove dir;
  let files =
    [
      ("lib/crypto/orphan.ml", "let x = 1\n");
      ("lib/dpf/dpf.ml", "let x = 1\n");
      ( "lib/util/hex.ml",
        Analyzer.read_file (Option.get (Analyzer.resolve_file "lib/util/hex.ml")) );
    ]
  in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  List.iter
    (fun (rel, src) ->
      let p = Filename.concat dir rel in
      mkdirs (Filename.dirname p);
      Out_channel.with_open_bin p (fun oc -> output_string oc src))
    files;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let report = Analyzer.scan_paths [ Filename.concat dir "lib" ] in
      Alcotest.(check (list (triple string string string))) "the unbuilt and the stale source"
        [
          ("lib/crypto/orphan.ml", "typed-tree",
            "no typed tree: no build stanza compiles this source");
          ("lib/dpf/dpf.ml", "typed-tree",
            "no typed tree: the .cmt was built from other contents; rebuild");
        ]
        (List.map
           (fun f -> (Front.normalize_path f.Report.file, f.Report.rule, f.Report.message))
           report.Report.findings);
      Alcotest.(check int) "scanned all three" 3 report.Report.files_scanned)

(* ------------------------- reachability gate ------------------------- *)

(* The vals an interface exports, each as the module path it sits under
   (the file's module first, then any nested [module M : sig]) and its
   name. *)
let exported_vals ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  let rec vals m (items : Parsetree.signature) =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value v -> [ (m, v.pval_name.txt) ]
        | Psig_module
            { pmd_name = { txt = Some name; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
          ->
            vals (m @ [ name ]) s
        | _ -> [])
      items
  in
  vals [ Front.module_of_file file ] (Parse.interface lexbuf)

let rec mli_files_under path =
  if Sys.is_directory path then
    List.concat_map
      (fun e -> mli_files_under (Filename.concat path e))
      (Array.to_list (Sys.readdir path))
  else if Filename.check_suffix path ".mli" then [ path ]
  else []

(* What the gate finds and keeps on purpose, each with its reason: a
   module no seed reaches, or a val no reached file reads outside its
   own module. A listed name must be found. *)
let unreached_by_design =
  [
    (* modules *)
    ("Paginate", "§5.1's next link: chains pages larger than a bucket, for the planned packed index");
    ("Pacer", "constant-rate cover traffic, for the planned paced browsing session");
    ("Trace_check", "test oracle: the dynamic obliviousness checks");
    ("Faulty", "chaos harness: fault-injecting endpoints for tests and the chaos bench");
    ( "Poly1305",
      "the standalone RFC 8439 MAC; Aead runs the same C Poly1305 body inside its seal and open" );
    (* chaos hooks: faults and failover state the chaos and cluster suites drive and read *)
    ("Supervisor.sigstop", "chaos hook: freezes a shard process for the SIGSTOP failover case");
    ("Supervisor.sigcont", "chaos hook: thaws the shard the SIGSTOP case froze");
    ("Supervisor.ctl_port", "chaos hook: the cluster suite forges a stale registration on it");
    ("Zltp_frontend.set_shard_down", "chaos hook: marks a shard down for the failover cases");
    ("Zltp_client.current_replicas", "chaos state: the failover cases check which replica answers");
    ("Lw_store.index_of_key", "chaos hook: the short-share case plants records at their buckets");
    (* per-build kernel hooks the tests cross-check *)
    ("Aes128.mmo_blocks_on", "per-build hook: MMO blocks on each AES build the CPU runs");
    ("Aes128.mmo_gen_on", "per-build hook: key generation on each AES build the CPU runs");
    ("Xorbuf.extent_order", "per-build hook: the sorted walk's counting sort, held to a model");
    (* reference code known-answer and golden tests compare against *)
    ("Aes128.expand_key", "FIPS-197 and SP 800-38A known answers key the block cipher with it");
    ("Aes128.encrypt_block", "FIPS-197 and SP 800-38A known answers: the bare block cipher");
    ("Aes128.mmo_hash", "known answers for the DPF's MMO compression, one block at a time");
    ("Chacha20.block", "RFC 8439 §2.3 known answer: one keystream block");
    ("Chacha20.encrypt", "RFC 8439 §2.4 known answer and golden keystreams on every build");
    ("Hmac.hmac_sha256", "RFC 4231 known answers: the MAC under HKDF");
    ("X25519.scalarmult", "RFC 7748 §5.2 known answers: the ladder on an arbitrary point");
    ("Prg.terminal_into", "golden vectors recorded from the OCaml PRG it replaced");
    ("Idpf.eval_prefix", "golden vectors and the IDPF tests: the per-level values");
    ("Idpf.eval_all_level", "golden vectors: one level's values for every prefix");
    ("Idpf.eval_all_level_counts", "golden vectors: one level's counts for every prefix");
    (* hooks that show what an adversary or a test oracle observes *)
    ("Lw_store.Snapshot.traced", "Trace_check's recorder: the buckets a scan touches");
    ("Enclave.observed_trace", "Trace_check and the ORAM suite read the host-visible trace");
    ("Enclave.clear_trace", "Trace_check and the ORAM suite reset the host-visible trace");
    ("Recursive_oram.access_log", "the recursive ORAM's leaf trace, checked input-independent");
    ("Recursive_oram.clear_access_log", "resets the recursive ORAM's leaf trace between inputs");
    ("Recursive_oram.total_stash", "the stash the churn case checks stays bounded");
    ("Heavy_hitters.server_sum", "one server's share, which the blindness case checks is no count");
    ("Span.set_clock", "the obs suite times spans on a virtual clock");
    ("Server.run_workers", "the scan's one spawn site; the obs suite rigs a worker to raise");
    (* observation hooks the store, keyword and codec tests check against *)
    ("Kw_store.find", "the plaintext lookup the keyword model property compares with a Hashtbl");
    ("Kw_store.candidates", "the two cuckoo buckets the displacement cases aim keys at");
    ("Kw_store.pending_mutations", "the bucket writes the displacement cases count");
    ("Lw_store.Snapshot.extent", "the stored extent the sparse-store property checks");
    ("Zltp_wire.client_body_size", "the counting pass the encoded-size property checks");
    ("Zltp_wire.server_body_size", "the counting pass the encoded-size property checks");
    ("Zltp_mode.rank", "the negotiation order test_modes' subset matrix checks");
    ("Endpoint.pipe", "in-process transport: the net and serve-loop tests run real frames over it");
    ("Ct.select_int", "the masked select SECURITY.md's taint row prescribes for a secret branch");
    ("Ct.mask_of_bit", "select_int's arithmetic mask, the other remedy that row names");
    (* planned paths *)
    ("Universe.remove_data", "a publisher's delete, for planned takedowns; checked across epochs");
    ("Enclave.remove", "the enclave store's delete, paired with Universe.remove_data");
    ("Browser.evict_code", "code-cache eviction, for the planned code-update path");
    ("Corpus.to_sites", "a synthetic corpus as sites; the integration pipeline publishes them");
  ]

(* The gate over [units], the typed trees of lib/, the seeds and
   anything else (tests, which seed nothing), with [mlis] the
   (path, source) interfaces of lib/. The system libraries (lib/ but
   lw_repro, at lib/repro/) must be reached from the seeds bin/,
   examples/ and perfbench/, and lw_repro's modules from those or
   bench/. Every val a lib/ interface exports must be read, outside its
   own module, by a seed or a module the seeds (bench/ among them)
   reach. Returns what is unreached or unread and the gate's complaints:
   found but not [listed], listed but not found, or listed but naming
   no module or val. *)
let reachability ~(units : Front.unit_ list) ~mlis ~listed =
  let root (u : Front.unit_) = List.hd (String.split_on_char '/' u.source) in
  let aliases = Hashtbl.create 256 in
  List.iter (fun u -> List.iter (fun (a, t) -> Hashtbl.replace aliases a t) u.Front.aliases) units;
  (* a generated wrapper (a library's or an executable's alias module)
     only passes names on *)
  let units = List.filter (fun u -> not (String.ends_with ~suffix:"-gen" u.Front.source)) units in
  let uses = Hashtbl.create 256 in
  List.iter
    (fun u ->
      Hashtbl.add uses u.Front.modname
        (List.map (fun (k, q) -> (k, Front.expand aliases q)) u.uses))
    units;
  let closure seeds =
    let reached = Hashtbl.create 64 in
    let rec visit m =
      if Hashtbl.mem uses m && not (Hashtbl.mem reached m) then begin
        Hashtbl.replace reached m ();
        List.iter (List.iter (fun (_, q) -> visit (List.hd q))) (Hashtbl.find_all uses m)
      end
    in
    List.iter (fun (u : Front.unit_) -> if List.mem (root u) seeds then visit u.modname) units;
    reached
  in
  let binaries = [ "bin"; "examples"; "perfbench" ] in
  let by_binaries = closure binaries and by_any = closure ("bench" :: binaries) in
  let lib = List.filter (fun u -> root u = "lib") units in
  let repro (u : Front.unit_) = String.starts_with ~prefix:"lib/repro/" u.source in
  let name (u : Front.unit_) = Front.module_of_file u.source in
  let unreached =
    List.filter
      (fun u -> not (Hashtbl.mem (if repro u then by_any else by_binaries) u.Front.modname))
      lib
  in
  let read = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun m () ->
      List.iter
        (List.iter (fun (k, q) ->
             if k = Front.Value && List.hd q <> m then Hashtbl.replace read q ()))
        (Hashtbl.find_all uses m))
    by_any;
  (* each val of a reached module: its name and its qualified path *)
  let vals =
    List.concat_map
      (fun (u : Front.unit_) ->
        match List.assoc_opt (u.source ^ "i") mlis with
        | Some src when not (List.memq u unreached) ->
            List.map
              (fun (path, v) ->
                (String.concat "." (path @ [ v ]), (u.modname :: List.tl path) @ [ v ]))
              (exported_vals ~file:(u.source ^ "i") src)
        | _ -> [])
      lib
  in
  let unread = List.filter_map (fun (n, key) -> if Hashtbl.mem read key then None else Some n) vals
  in
  let unreached = List.sort_uniq String.compare (List.map name unreached) in
  let complaint n =
    let is_module = not (String.contains n '.') in
    let found = List.mem n (if is_module then unreached else unread) in
    let exists =
      if is_module then List.exists (fun u -> name u = n) lib else List.mem_assoc n vals
    in
    match (List.mem_assoc n listed, exists, found) with
    | false, _, _ when is_module -> Some (n ^ ": reached from no seed, and not listed")
    | false, _, _ -> Some (n ^ ": read by no reached file outside its module, and not listed")
    | true, false, _ -> Some (n ^ ": listed, but names no library module or val")
    | true, true, true -> None
    | true, true, false -> Some (n ^ ": listed, but " ^ if is_module then "reached" else "read")
  in
  let found = unreached @ unread in
  (found, List.filter_map complaint (found @ List.map fst listed))

let gate ?(listed = []) ?(mlis = []) files =
  let units = List.filter_map (fun (_, u) -> Result.to_option u) (Front.typed_fixtures files) in
  reachability ~units ~mlis ~listed

let verdict = Alcotest.(check (pair (list string) (list string)))

let test_reach_clean () =
  verdict "every module reached, every val read" ([], [])
    (gate
       ~mlis:[ ("lib/core/b.mli", "val y : int"); ("lib/core/a.mli", "val x : int") ]
       [
         ("lib/core/b.ml", "let y = 1"); ("lib/util/c.ml", "let z = 2");
         ("lib/core/a.ml", "let x = B.y + C.z"); ("bin/main.ml", "let () = print_int A.x");
       ])

let test_reach_dirty () =
  let files =
    [
      ("lib/core/a.ml", "let x = 1"); ("lib/core/only_tested.ml", "let y = A.x");
      ("bin/main.ml", "(* Only_tested.y *) let () = print_string \"Only_tested.y\"; print_int A.x");
      ("test/test_only.ml", "let () = print_int Only_tested.y");
    ]
  in
  verdict "the test-only module is reported"
    ([ "Only_tested" ], [ "Only_tested: reached from no seed, and not listed" ])
    (gate files);
  verdict "listing it clears the report" ([ "Only_tested" ], [])
    (gate ~listed:[ ("Only_tested", "why") ] files)

let test_reach_test_only_val () =
  verdict "the val only a test reads is reported"
    ( [ "A.only_tested" ],
      [ "A.only_tested: read by no reached file outside its module, and not listed" ] )
    (gate
       ~mlis:[ ("lib/core/a.mli", "val x : int\nval only_tested : int") ]
       [
         ("lib/core/a.ml", "let x = 1\nlet only_tested = 2");
         ("bin/main.ml", "let () = print_int A.x");
         ("test/test_a.ml", "let () = print_int A.only_tested");
       ])

let test_reach_own_module_val () =
  verdict "the val only its own module reads is reported"
    ([ "A.helper" ], [ "A.helper: read by no reached file outside its module, and not listed" ])
    (gate
       ~mlis:[ ("lib/core/a.mli", "val helper : int\nval x : int") ]
       [
         ("lib/core/a.ml", "let helper = 1\nlet x = helper + 1");
         ("bin/main.ml", "let () = print_int A.x");
       ])

let test_reach_open_and_alias () =
  verdict "a local open and a module alias both reach" ([], [])
    (gate
       ~mlis:[ ("lib/core/l.mli", "module M : sig\n  val v : int\n  val w : int\nend") ]
       [
         ("lib/core/l.ml", "module M = struct\n  let v = 1\n  let w = 2\nend");
         ( "bin/main.ml",
           "let () = let open L.M in print_int v\nmodule U = L.M\nlet () = print_int U.w" );
       ])

let test_reach_same_named_local () =
  verdict "a local module of the same name reaches nothing"
    ([ "Server" ], [ "Server: reached from no seed, and not listed" ])
    (gate
       [
         ("lib/pir/server.ml", "let answer = 1"); ("lib/core/zltp_server.ml", "let serve = 2");
         ("perfbench/lwbench.ml", "module Server = Zltp_server\nlet () = print_int Server.serve");
       ])

let test_reach_stale_list () =
  let _, problems =
    gate
      ~listed:[ ("A", "why"); ("A.x", "why"); ("Gone", "why"); ("A.gone", "why") ]
      ~mlis:[ ("lib/core/a.mli", "val x : int") ]
      [ ("lib/core/a.ml", "let x = 1"); ("examples/demo.ml", "let () = print_int A.x") ]
  in
  Alcotest.(check (list string)) "stale entries are reported"
    [
      "A: listed, but reached"; "A.x: listed, but read";
      "Gone: listed, but names no library module or val";
      "A.gone: listed, but names no library module or val";
    ]
    problems

let test_repo_reachability () =
  let lib = Option.get (Analyzer.resolve_dir "lib") in
  let mlis =
    List.map
      (fun f ->
        let rel = String.sub f (String.length lib) (String.length f - String.length lib) in
        ("lib" ^ rel, Analyzer.read_file f))
      (mli_files_under lib)
  in
  (* every typed tree dune wrote for lib/, the seeds and bench/ (their
     [check] aliases build them before this test runs) *)
  let dirs = [ "lib"; "bin"; "examples"; "perfbench"; "bench" ] in
  let units = List.map (fun (_, (_, u)) -> u) (Front.load dirs) in
  let found, problems = reachability ~units ~mlis ~listed:unreached_by_design in
  Printf.printf "unreached modules and unread vals: %s\n" (String.concat " " found);
  List.iter (Printf.printf "REACH: %s\n") problems;
  Alcotest.(check (list string)) "every module reached and every val read, or listed" [] problems;
  Alcotest.(check bool) "walked a real tree" true (List.length units > 80 && List.length mlis > 60)

(* ------------------------- taint tables ------------------------- *)

(* Every name the taint tables hold must still exist: a source,
   traversal, declassifier or sink left in them after its function went
   names nothing. Each must type, by its full path, against the built
   libraries: a val a lib/ interface exports, or a Stdlib value. *)
let test_taint_tables_name_exports () =
  let names =
    Taint.SS.elements Taint.source_calls
    @ Taint.SS.elements Taint.declassified_calls
    @ List.concat_map (List.map fst) [ Taint.hof_seeds; Taint.index_sinks; Taint.alloc_sinks ]
    @ List.map fst Taint.writer_calls
  in
  let types name =
    let i = String.rindex name '.' in
    let path, value = (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1)) in
    let src = Printf.sprintf "let _ = %s.( %s )" path value in
    Result.is_ok (snd (List.hd (Front.typed_fixtures [ ("lib/core/tables.ml", src) ])))
  in
  Alcotest.(check (list string)) "names no exported val" []
    (List.filter (fun n -> not (types n)) names);
  Alcotest.(check bool) "a name nothing exports is caught" false (types "Lw_dpf.Dpf.eval_leaf")

(* Each module moved into lw_repro keeps its old subdirectory name, so
   every path-keyed lint rule that applied at its old path still applies. *)
let moved_to_repro =
  [
    "pir/bitvec_pir.ml"; "pir/baselines.ml"; "dpf/idpf.ml"; "sim/heavy_hitters.ml";
    "sim/fleet_sim.ml"; "sim/queue_sim.ml"; "sim/latency_model.ml"; "sim/retrieval.ml";
    "oram/recursive_oram.ml"; "util/ascii_chart.ml";
  ]

let test_moved_rules_apply () =
  let applicable path =
    let ctx =
      {
        Rules.path;
        path_segments = Analyzer.path_segments path;
        basename = Analyzer.basename path;
        secrets = Hashtbl.create 1;
      }
    in
    List.filter_map (fun r -> if r.Rules.applies ctx then Some r.Rules.name else None) Rules.all
  in
  let lib = Option.get (Analyzer.resolve_dir "lib") in
  List.iter
    (fun rel ->
      let old_path = "lib/" ^ rel and new_path = "lib/repro/" ^ rel in
      Alcotest.(check bool) (rel ^ " lives under lib/repro") true
        (Sys.file_exists (Filename.concat (Filename.concat lib "repro") rel)
        && not (Sys.file_exists (Filename.concat lib rel)));
      Alcotest.(check (list string)) (rel ^ ": same rules") (applicable old_path)
        (applicable new_path))
    moved_to_repro

(* ------------------------- dynamic obliviousness ------------------------- *)

let check_ok label = function
  | Ok () -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" label e)

let test_trace_enclave () =
  (* present, present, missing: three distinct secret keys, same shape *)
  check_ok "enclave defaults" (Trace_check.check_enclave ());
  check_ok "enclave more keys"
    (Trace_check.check_enclave ~capacity:64 ~fill:20 ~gets:4
       ~keys:[ "page-0"; "page-19"; "page-3"; "ghost-a"; "ghost-b" ] ())

(* Each case is one geometry of the scan gate ([Trace_check.check_scan]):
   widths 1, 2, 5 and 9 unless named, each over two batches that hold
   buckets 0 and size - 1, whole, through shard views and partitioned.
   [check_all] runs it at 6 x 32 B and 6 x 600 B. *)
let test_trace_bucket_scan () =
  check_ok "6 x 32 B" (Trace_check.check_scan ());
  check_ok "8 x 64 B" (Trace_check.check_scan ~domain_bits:8 ~bucket_size:64 ())

(* widths 8 and 9 sit either side of the 8-lane plane boundary *)
let test_trace_batch_scan () =
  check_ok "5 x 24 B" (Trace_check.check_scan ~domain_bits:5 ~bucket_size:24 ());
  check_ok "6 x 48 B, a full pack and two packs"
    (Trace_check.check_scan ~domain_bits:6 ~bucket_size:48 ~widths:[ 8; 9 ] ())

let test_trace_retry () =
  check_ok "retry defaults" (Trace_check.check_retry ());
  check_ok "retry other geometry"
    (Trace_check.check_retry ~domain_bits:5 ~bucket_size:48 ~alpha:30 ())

(* the same control/faulted pair for the other three Pir2 verbs: fresh
   DPF keys and qid per attempt, one frame size, for [Pir_batch] and
   [Keyword_query] as for [Pir_query] *)
let test_trace_retry_verbs () =
  List.iter
    (fun (label, verb) ->
      check_ok label (Trace_check.check_retry ~verb ());
      check_ok (label ^ " other geometry")
        (Trace_check.check_retry ~verb ~domain_bits:5 ~bucket_size:48 ()))
    [
      ("retry get_batch", `Get_batch);
      ("retry keyword_get", `Keyword_get);
      ("retry keyword_get_batch", `Keyword_get_batch);
    ]

let test_trace_snapshot_scan () =
  check_ok "7 x 48 B" (Trace_check.check_scan ~domain_bits:7 ~bucket_size:48 ())

(* a bucket size past a power of two, read up to its extents, with views
   of 32 and 8 buckets over blocks of 8 *)
let test_trace_sparse_scan () =
  check_ok "7 x 4100 B"
    (Trace_check.check_scan ~domain_bits:7 ~bucket_size:4100 ~shard_bits:[ 2; 4 ]
       ~partitions:[ 8 ] ())

let test_trace_spir_scan () =
  check_ok "spir defaults" (Trace_check.check_spir_scan ());
  check_ok "spir other geometry"
    (Trace_check.check_spir_scan ~domain_bits:7 ~bucket_size:48
       ~indices:[ 0; 99; 127 ] ())

(* partition counts that are not a power of two round up to one inside
   [answer_partitioned]; width 3 is the batch the partitioned scan was
   first checked with *)
let test_trace_partitioned_scan () =
  check_ok "6 x 32 B, width 3" (Trace_check.check_scan ~widths:[ 3 ] ());
  check_ok "7 x 48 B, partitions 3, 5 and 16"
    (Trace_check.check_scan ~domain_bits:7 ~bucket_size:48 ~widths:[ 1; 3 ]
       ~partitions:[ 3; 5; 16 ] ())

let test_trace_check_all () = check_ok "check_all" (Trace_check.check_all ())

let () =
  Alcotest.run "lw_analysis"
    [
      ( "lexer",
        [
          Alcotest.test_case "idents and keywords" `Quick test_lexer_idents_and_keywords;
          Alcotest.test_case "strings opaque" `Quick test_lexer_strings_opaque;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "char vs type var" `Quick test_lexer_char_vs_tyvar;
          Alcotest.test_case "comment nesting regressions" `Quick
            test_lexer_comment_nesting_regressions;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
          Alcotest.test_case "parse-error alone" `Quick test_parse_error_alone;
          Alcotest.test_case "names resolved through opens and aliases" `Quick
            test_front_resolved_names;
        ] );
      ( "rules",
        [
          Alcotest.test_case "ct-equality" `Quick test_rule_ct_equality;
          Alcotest.test_case "poly-compare" `Quick test_rule_poly_compare;
          Alcotest.test_case "secret-branch" `Quick test_rule_secret_branch;
          Alcotest.test_case "secret-branch lane kernel" `Quick test_rule_secret_branch_lane_kernel;
          Alcotest.test_case "C scan kernel has no branch" `Quick test_c_kernel_no_branch;
          Alcotest.test_case "C kernels' conditional jumps pinned" `Quick
            test_c_kernel_jumps_pinned;
          Alcotest.test_case "nondeterminism" `Quick test_rule_nondeterminism;
          Alcotest.test_case "raw-timestamp" `Quick test_rule_raw_timestamp;
          Alcotest.test_case "key-print" `Quick test_rule_key_print;
          Alcotest.test_case "server-abort" `Quick test_rule_server_abort;
          Alcotest.test_case "unbounded-wait" `Quick test_rule_unbounded_wait;
          Alcotest.test_case "process-hygiene" `Quick test_rule_process_hygiene;
          Alcotest.test_case "pragma suppression" `Quick test_pragma_suppression;
          Alcotest.test_case "unused allow pragma" `Quick test_pragma_unused_allow;
          Alcotest.test_case "old Ct.select caught" `Quick test_old_ct_select_is_caught;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "taint through helper" `Quick test_taint_through_helper;
          Alcotest.test_case "taint declassifies by full path" `Quick
            test_taint_declassified_by_path;
          Alcotest.test_case "taint binds labelled arguments" `Quick
            test_taint_labelled_arguments;
          Alcotest.test_case "taint through a function-form match" `Quick
            test_taint_function_form;
          Alcotest.test_case "taint from SPIR secret source" `Quick
            test_taint_spir_secret_source;
          Alcotest.test_case "taint from DPF source" `Quick
            test_taint_dpf_source_to_index;
          Alcotest.test_case "taint through a partial application" `Quick
            test_taint_partial_application;
          Alcotest.test_case "taint: DPF leaf one-hot" `Quick test_taint_leaf_onehot;
          Alcotest.test_case "taint: seed-indexed table" `Quick test_taint_seed_table_lookup;
          Alcotest.test_case "taint across loop iterations" `Quick
            test_taint_loop_carried_ref;
          Alcotest.test_case "taint under a local open" `Quick test_taint_local_open;
          Alcotest.test_case "race on spawned ref" `Quick test_race_spawned_ref;
          Alcotest.test_case "race: partitioned-scan fixtures" `Quick
            test_race_partitioned_scan_fixtures;
          Alcotest.test_case "pin/unpin balance" `Quick test_balance_pin_lifecycle;
          Alcotest.test_case "pin result match binds Ok only" `Quick
            test_balance_pin_result_match;
          Alcotest.test_case "allow lines=N pragma" `Quick test_pragma_lines_span;
          QCheck_alcotest.to_alcotest prop_taint_monotone;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "line-free matching" `Quick test_baseline_matching;
          Alcotest.test_case "keyed by function" `Quick test_baseline_keyed_by_function;
          Alcotest.test_case "missing file" `Quick test_baseline_missing_file;
          Alcotest.test_case "stale entries reported" `Quick test_baseline_stale;
          Alcotest.test_case "counted entries" `Quick test_baseline_counts;
        ] );
      ( "report",
        [ Alcotest.test_case "json shape" `Quick test_report_json_shape ] );
      ( "ci-gate",
        [
          Alcotest.test_case "repo lints clean vs baseline" `Quick test_repo_is_clean;
          Alcotest.test_case "a source without a fresh typed tree is a finding" `Quick
            test_missing_typed_tree;
          Alcotest.test_case "taint tables name exported vals" `Quick
            test_taint_tables_name_exports;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "clean tree" `Quick test_reach_clean;
          Alcotest.test_case "test-only module reported" `Quick test_reach_dirty;
          Alcotest.test_case "test-only val reported" `Quick test_reach_test_only_val;
          Alcotest.test_case "val read only in its own module reported" `Quick
            test_reach_own_module_val;
          Alcotest.test_case "local open and module alias reach" `Quick test_reach_open_and_alias;
          Alcotest.test_case "same-named local module reaches nothing" `Quick
            test_reach_same_named_local;
          Alcotest.test_case "stale list entries reported" `Quick test_reach_stale_list;
          Alcotest.test_case "system libraries reached from the binaries" `Quick
            test_repo_reachability;
          Alcotest.test_case "moved files keep their lint rules" `Quick test_moved_rules_apply;
        ] );
      ( "obliviousness",
        [
          Alcotest.test_case "enclave traces" `Quick test_trace_enclave;
          Alcotest.test_case "bucket scan traces" `Quick test_trace_bucket_scan;
          Alcotest.test_case "batch scan traces" `Quick test_trace_batch_scan;
          Alcotest.test_case "CoW snapshot scan traces" `Quick test_trace_snapshot_scan;
          Alcotest.test_case "sparse extent scan traces" `Quick test_trace_sparse_scan;
          Alcotest.test_case "SPIR scan traces" `Quick test_trace_spir_scan;
          Alcotest.test_case "partitioned scan traces" `Quick
            test_trace_partitioned_scan;
          Alcotest.test_case "retry wire shape" `Quick test_trace_retry;
          Alcotest.test_case "retry wire shape, every Pir2 verb" `Quick test_trace_retry_verbs;
          Alcotest.test_case "check_all" `Quick test_trace_check_all;
        ] );
    ]
