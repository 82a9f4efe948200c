(** CRC-32 (IEEE 802.3). Detects {e every} single-bit error and short
    bursts — the guarantee the wire-integrity trailer relies on. Not a
    MAC: no adversarial collision resistance.

    It runs in C ([crc32_stubs.c]), in one of two builds: ["pclmul"]
    (carry-less-multiply folding, on x86-64 CPUs with PCLMULQDQ; no load
    indexed by a message byte) and ["baseline"] (slice-by-8 tables, the
    only build elsewhere). The CPU picks the build once at load; every
    build computes the same CRC. *)

val update : int32 -> string -> pos:int -> len:int -> int32
(** Incremental: [update 0l s ~pos:0 ~len] = [digest (String.sub s pos len)],
    and [update (digest a) b ~pos:0 ~len:(String.length b)] =
    [digest (a ^ b)]. Raises [Invalid_argument] unless [pos] and [len]
    give a range inside [s]. *)

val update_bytes : int32 -> Bytes.t -> pos:int -> len:int -> int32
(** {!update} over a range of a byte buffer, so a codec can seal a frame
    it is still writing. Raises as {!update} does. *)

val build : unit -> string
(** The build every call runs: the first of {!builds}, picked once when
    the program loads, from CPUID alone. *)

val builds : unit -> string list
(** Every build this CPU can run, preferred first, ending with
    ["baseline"]: the hook tests and benchmarks check and time each build
    through. *)

val update_on : build:string -> int32 -> string -> pos:int -> len:int -> int32
(** {!update} on the named build from {!builds}. Raises
    [Invalid_argument] on any other name, and as {!update} does. *)
