(* Standard reflected CRC-32 (IEEE 802.3 polynomial 0xEDB88320), in C
   (crc32_stubs.c): carry-less-multiply folding where the CPU has
   PCLMULQDQ, slice-by-8 tables elsewhere, the build picked once from
   CPUID. Not a cryptographic primitive: it guarantees detection of any
   single-bit error and all short burst errors, which is exactly the
   failure class an integrity trailer on a simulated lossy link must
   catch deterministically. The external reads no OCaml value but its
   arguments and allocates nothing; the range is checked here first. *)

external c_builds : unit -> string array = "lw_crc_builds"
external c_first : unit -> int = "lw_crc_first"
external c_update : int -> int -> string -> int -> int -> int = "lw_crc_update" [@@noalloc]
external c_update_bytes : int -> int -> Bytes.t -> int -> int -> int = "lw_crc_update" [@@noalloc]

(* Every build, preferred first; the CPU runs those from [first] on, and
   every call runs [first]. *)
let all_builds = c_builds ()
let first = c_first ()
let build () = all_builds.(first)
let builds () = Array.to_list (Array.sub all_builds first (Array.length all_builds - first))

let build_index name =
  match Array.find_index (String.equal name) all_builds with
  | Some i when i >= first -> i
  | _ -> invalid_arg "Crc32: build not runnable on this CPU"

let check pos len total =
  (* [pos > total - len] rather than [pos + len > total]: the sum can
     wrap for huge [len], and the C loop reads unchecked *)
  if pos < 0 || len < 0 || pos > total - len then
    invalid_arg "Crc32.update: range out of bounds"

let run b crc s ~pos ~len =
  check pos len (String.length s);
  Int32.of_int (c_update b (Int32.to_int crc land 0xffffffff) s pos len)

let update crc s ~pos ~len = run first crc s ~pos ~len
let update_on ~build crc s ~pos ~len = run (build_index build) crc s ~pos ~len

let update_bytes crc b ~pos ~len =
  check pos len (Bytes.length b);
  Int32.of_int (c_update_bytes first (Int32.to_int crc land 0xffffffff) b pos len)
