(* LWE-style single-server PIR over the epoch engine's sealed snapshots
   (SimplePIR/ZipPIR shape; see spir.mli for the construction and the
   noise-bound arithmetic). All ring arithmetic is mod 2^32 on native
   ints: a 63-bit int holds any 8-bit x 32-bit product plus a 32-bit
   accumulator without overflow, and [mul32] splits the one genuinely
   32x32 product (A·s, H·s) so no intermediate exceeds 2^49. *)

type params = { n : int }

let default_params = { n = 64 }
let max_domain_bits = 14
let log_delta = 24
let delta = 1 lsl log_delta
let mask32 = 0xFFFFFFFF

(* (a * b) mod 2^32 for a, b < 2^32 without leaving 63-bit range: the
   high half of [a] only contributes its low 16 bits after the shift. *)
let mul32 a b =
  ((a land 0xFFFF) * b + ((a lsr 16) * b land 0xFFFF) lsl 16) land mask32

let a_seed ~hash_key ~epoch =
  Lw_crypto.Sha256.digest (Printf.sprintf "lw-spir-A/%s/%d" hash_key epoch)

let seed_len = 32 (* Sha256.digest_len *)
let header_bytes = 16 + seed_len
let hint_bytes p ~bucket_size = header_bytes + (bucket_size * p.n * 4)
let query_bytes ~domain_bits = 12 + ((1 lsl domain_bits) * 4)

(* ---- u32 (de)serialization helpers ---- *)

let u32_at s pos = Int32.to_int (String.get_int32_be s pos) land mask32

let check_magic s magic =
  if String.length s < 4 || not (String.equal (String.sub s 0 4) magic) then
    Error (Printf.sprintf "bad %s header" magic)
  else Ok ()

(* The public query matrix A is never materialized: both sides stream its
   rows (n u32s per column, columns in index order) out of a DRBG keyed
   by the epoch seed, so hint computation and query generation walk the
   identical sequence. *)
let a_row_stream ~seed ~n =
  let rng = Lw_crypto.Drbg.create ~seed in
  let row = Array.make n 0 in
  fun () ->
    let bytes = Lw_crypto.Drbg.generate rng (4 * n) in
    for i = 0 to n - 1 do
      row.(i) <- u32_at bytes (4 * i)
    done;
    row

(* ---- hints ---- *)

type hint = {
  h_epoch : int;
  h_rows : int;
  h_n : int;
  h_seed : string; (* the public A seed, carried so clients need nothing else *)
  h : int array; (* rows*n *)
}

let hint_epoch h = h.h_epoch

let hint_of_snapshot p snap =
  let rows = Lw_store.Snapshot.bucket_size snap in
  let cols = Lw_store.Snapshot.size snap in
  let n = p.n in
  let epoch = Lw_store.Snapshot.epoch snap in
  let seed = a_seed ~hash_key:(Lw_store.Snapshot.hash_key snap) ~epoch in
  let next_row = a_row_stream ~seed ~n in
  let h = Array.make (rows * n) 0 in
  for j = 0 to cols - 1 do
    let a_row = next_row () in
    let bucket = Lw_store.Snapshot.get snap j in
    for r = 0 to rows - 1 do
      let d = Char.code (String.unsafe_get bucket r) in
      (* skipping zero DATA bytes depends only on the (public, sealed)
         database, never on any query — the hint is the same for every
         client *)
      if d <> 0 then begin
        let base = r * n in
        for i = 0 to n - 1 do
          Array.unsafe_set h (base + i)
            ((Array.unsafe_get h (base + i) + (d * Array.unsafe_get a_row i)) land mask32)
        done
      end
    done
  done;
  let b = Bytes.create (header_bytes + (rows * n * 4)) in
  Bytes.blit_string "SPH1" 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int epoch);
  Bytes.set_int32_be b 8 (Int32.of_int rows);
  Bytes.set_int32_be b 12 (Int32.of_int n);
  Bytes.blit_string seed 0 b 16 seed_len;
  Array.iteri (fun k v -> Bytes.set_int32_be b (header_bytes + (4 * k)) (Int32.of_int v)) h;
  Bytes.unsafe_to_string b

let decode_hint s =
  match check_magic s "SPH1" with
  | Error _ as e -> e
  | Ok () ->
      if String.length s < header_bytes then Error "hint truncated"
      else begin
        let h_epoch = u32_at s 4 in
        let h_rows = u32_at s 8 in
        let h_n = u32_at s 12 in
        let cells = h_rows * h_n in
        if h_rows < 1 || h_rows > 1 lsl 24 || h_n < 1 || h_n > 1 lsl 16 then
          Error "hint dimensions out of range"
        else if String.length s <> header_bytes + (4 * cells) then
          Error "hint length does not match its dimensions"
        else begin
          let h_seed = String.sub s 16 seed_len in
          let h = Array.init cells (fun k -> u32_at s (header_bytes + (4 * k))) in
          Ok { h_epoch; h_rows; h_n; h_seed; h }
        end
      end

(* ---- client ---- *)

module Client = struct
  type secret = { s : int array; s_epoch : int; s_rows : int }

  let query hint ~domain_bits ~index rng =
    if domain_bits < 1 || domain_bits > max_domain_bits then
      invalid_arg
        (Printf.sprintf "Spir.Client.query: domain_bits must be in [1,%d] (noise bound)"
           max_domain_bits);
    let cols = 1 lsl domain_bits in
    if index < 0 || index >= cols then invalid_arg "Spir.Client.query: index out of domain";
    let n = hint.h_n in
    let s = Array.make n 0 in
    let sb = Lw_crypto.Drbg.generate rng (4 * n) in
    for i = 0 to n - 1 do
      s.(i) <- u32_at sb (4 * i)
    done;
    let next_row = a_row_stream ~seed:hint.h_seed ~n in
    let b = Bytes.create (12 + (4 * cols)) in
    Bytes.blit_string "SPQ1" 0 b 0 4;
    Bytes.set_int32_be b 4 (Int32.of_int hint.h_epoch);
    Bytes.set_int32_be b 8 (Int32.of_int cols);
    for j = 0 to cols - 1 do
      let a_row = next_row () in
      let acc = ref 0 in
      for i = 0 to n - 1 do
        acc := (!acc + mul32 (Array.unsafe_get a_row i) (Array.unsafe_get s i)) land mask32
      done;
      (* fold the target column in branch-free: an arithmetic equality
         mask, never a secret-indexed write or a secret branch — the
         generation trace is the same full walk for every index *)
      let d = j lxor index in
      let nonzero = (d lor (-d)) lsr 62 land 1 in
      let e = Lw_crypto.Drbg.uniform_int rng 3 - 1 in
      Bytes.set_int32_be b (12 + (4 * j))
        (Int32.of_int ((!acc + e + (delta * (1 - nonzero))) land mask32))
    done;
    ({ s; s_epoch = hint.h_epoch; s_rows = hint.h_rows }, Bytes.unsafe_to_string b)

  let recover hint secret answer =
    match check_magic answer "SPA1" with
    | Error _ as e -> e
    | Ok () ->
        if String.length answer < 8 then Error "answer truncated"
        else begin
          let rows = u32_at answer 4 in
          if rows <> hint.h_rows || rows <> secret.s_rows then Error "answer row-count mismatch"
          else if secret.s_epoch <> hint.h_epoch then Error "secret/hint epoch mismatch"
          else if String.length answer <> 8 + (4 * rows) then Error "answer length mismatch"
          else begin
            let n = hint.h_n in
            let out = Bytes.create rows in
            for r = 0 to rows - 1 do
              let hs = ref 0 in
              let base = r * n in
              for i = 0 to n - 1 do
                hs :=
                  (!hs
                  + mul32 (Array.unsafe_get hint.h (base + i)) (Array.unsafe_get secret.s i))
                  land mask32
              done;
              let t = (u32_at answer (8 + (4 * r)) - !hs) land mask32 in
              Bytes.unsafe_set out r (Char.unsafe_chr ((t + (delta / 2)) lsr log_delta land 0xff))
            done;
            Ok (Bytes.unsafe_to_string out)
          end
        end
end

(* ---- server ---- *)

let answer snap query =
  match check_magic query "SPQ1" with
  | Error _ as e -> e
  | Ok () ->
      if String.length query < 12 then Error "query truncated"
      else begin
        let q_epoch = u32_at query 4 in
        let cols = u32_at query 8 in
        if cols <> Lw_store.Snapshot.size snap then Error "query column-count/domain mismatch"
        else if q_epoch <> Lw_store.Snapshot.epoch snap then Error "query/snapshot epoch mismatch"
        else if String.length query <> 12 + (4 * cols) then Error "query length mismatch"
        else begin
          let rows = Lw_store.Snapshot.bucket_size snap in
          let ans = Array.make rows 0 in
          (* one pass over every bucket in index order, whatever the
             query: the access trace is the same full walk as the
             two-server XOR scan's (Trace_check.check_spir_scan) *)
          for j = 0 to cols - 1 do
            let qu_j = u32_at query (12 + (4 * j)) in
            let bucket = Lw_store.Snapshot.get snap j in
            for r = 0 to rows - 1 do
              let d = Char.code (String.unsafe_get bucket r) in
              (* zero-byte skip depends on public data only, never the query *)
              if d <> 0 then
                Array.unsafe_set ans r ((Array.unsafe_get ans r + (d * qu_j)) land mask32)
            done
          done;
          let b = Bytes.create (8 + (4 * rows)) in
          Bytes.blit_string "SPA1" 0 b 0 4;
          Bytes.set_int32_be b 4 (Int32.of_int rows);
          Array.iteri (fun r v -> Bytes.set_int32_be b (8 + (4 * r)) (Int32.of_int v)) ans;
          Ok (Bytes.unsafe_to_string b)
        end
      end

(* ---- hint cache ---- *)

module Hint_cache = struct
  type t = {
    p : params;
    capacity : int;
    mu : Mutex.t;
    mutable entries : (int * string) list; (* newest first *)
  }

  let create ?(capacity = 4) p =
    if capacity < 1 then invalid_arg "Spir.Hint_cache.create: capacity must be >= 1";
    { p; capacity; mu = Mutex.create (); entries = [] }

  let get t store ~epoch =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        match List.assoc_opt epoch t.entries with
        | Some h -> Ok h
        | None -> (
            match Lw_store.pin store ~epoch with
            | Error _ as e -> e
            | Ok snap ->
                let h =
                  Fun.protect
                    ~finally:(fun () -> Lw_store.unpin store snap)
                    (fun () -> hint_of_snapshot t.p snap)
                in
                t.entries <-
                  (epoch, h) :: (if List.length t.entries >= t.capacity then
                                   List.filteri (fun i _ -> i < t.capacity - 1) t.entries
                                 else t.entries);
                Ok h))

  let warm t store = ignore (get t store ~epoch:(Lw_store.current_epoch store))
end
