(** Distributed point functions (Boyle–Gilboa–Ishai, CCS'16), selection
    bits only.

    A DPF for the point function [f_α] (1 at index [α] of a [2^d]
    domain, 0 elsewhere) is a pair of keys. Each key alone reveals
    nothing about [α]; the two keys' share bits XOR to [f_α]. Two-server
    PIR evaluates a key over the whole domain and XOR-accumulates
    database buckets where the share bit is set — the per-request linear
    scan the paper measures (§5.1).

    Keys terminate early: the GGM tree stops [min 7 d] levels above the
    leaves, and one more PRG call on each terminal seed, corrected by a
    16-byte leaf correction word under the node's control bit, yields
    the 128 (or [2^d] when [d < 7]) selection bits below it. A key is
    then per tree level one 16-byte seed correction word plus two
    control bits, and one leaf correction word. This is the only key
    shape: BGI16's value-carrying keys, whose trees run to every leaf,
    are neither made nor accepted ({!deserialize}). *)

type key

(** {2 Key generation} *)

val gen : domain_bits:int -> alpha:int -> Lw_crypto.Drbg.t -> key * key
(** [gen ~domain_bits ~alpha rng] produces the two key shares for the
    point function at [alpha]. [domain_bits] must be in [1..30] and
    [alpha] in [[0, 2^domain_bits)]. *)

(** {2 Accessors} *)

val party : key -> int
val domain_bits : key -> int

(** {2 Evaluation} *)

val eval_bit : key -> int -> int
(** [eval_bit k x] is this party's share bit at index [x]; the two
    parties' bits XOR to [1] iff [x = alpha]. *)

val eval_all_bits : key -> (int -> int -> unit) -> unit
(** [eval_all_bits k f] calls [f x bit] for every [x] in domain order.
    The cost is per terminal node, not per leaf: a key over [2^d]
    leaves expands [2^(d-7) - 1] internal nodes (two PRG calls each)
    and converts [2^(d-7)] terminal seeds (one PRG call each), so
    [3·2^(d-7) - 2] PRG calls in all. *)

val eval_bits_blocked : key -> block_bits:int -> (int -> Bytes.t -> int -> unit) -> unit
(** [eval_bits_blocked k ~block_bits f] streams the full-domain evaluation
    in blocks of [2^block_bits] leaves: [f base buf count] is called once
    per block, in domain order, with [buf.[j]] the selection bit (0/1
    byte) of leaf [base + j] for [j < count]. The same scratch buffer is
    reused across calls — valid only during the callback — so a
    full-domain pass allocates one chunk's worth of nodes and leaf bytes
    instead of [2^domain_bits]: a chunk is the block, or the leaves of 64
    terminal nodes (at most 8 KiB) when a block is narrower than that.
    The PRG covers a whole level of a chunk's subtree, or three levels
    below a node above the chunks, per call, and one more call turns a
    chunk's terminal nodes into leaf bits; nothing branches on a control
    bit. [block_bits] must lie in [0..domain_bits]; a block may span
    several terminal nodes or be a slice of one. *)

(** {2 Serialisation} *)

val serialize : key -> string
(** Version-2 encoding: a 10-byte header, the root seed, the tree's
    correction words and the leaf correction word. Header bytes 8–9 are
    always 0. *)

type decode_error =
  | Unsupported_version of int
      (** any version but 2 — in particular version-1 keys, whose trees
          ran to the leaves *)
  | Malformed of string

val decode_error_message : decode_error -> string

val deserialize : string -> (key, decode_error) result
(** Structural validation only: a syntactically valid key that was never
    produced by {!gen} still evaluates (to garbage shares) — privacy, not
    integrity, is the DPF's contract. A key shape {!gen} never makes is
    [Malformed]: in particular a value-carrying key (nonzero bytes 8–9,
    or a tree that runs to the leaves, [term_bits] 0), which would make
    a server walk [2^d] leaves instead of [2^(d-7)] terminal nodes. *)

val serialized_size : domain_bits:int -> int
(** Exact byte size of {!serialize} output over a [2^domain_bits]
    domain: [10 + 16 + 17·(d - min 7 d) + 16]. A sub-key has the size of
    a fresh key over its own domain. *)

val paper_key_size : domain_bits:int -> int
(** The paper's "(λ+2)·d" key-size arithmetic (§5.1), interpreted — as the
    paper's own totals require — in bytes with λ = 128: used by the
    cost-model reproduction of the communication rows. *)

(** {2 Internal hooks for [Distributed]} *)

val make_subkey :
  key -> prefix:int -> root_seed:Bytes.t -> root_pos:int -> root_t:int -> levels:int -> key
(** [make_subkey k ~prefix ~root_seed ~root_pos ~root_t ~levels] rebases
    [k] at prefix [prefix] of [levels] bits, given the node seed and
    control bit {!eval_prefixes} reported for it: the result is a valid
    key over the remaining [domain_bits k - levels] bits. Below the
    terminal level the sub-key keeps its terminal node's seed and
    control bit and covers a narrower run of that node's leaf bits. *)

val eval_prefixes : key -> levels:int -> (int -> int -> Bytes.t -> int -> unit) -> unit
(** [eval_prefixes k ~levels f] expands only the top [levels] levels,
    calling [f prefix t seed_buf pos] for each of the [2^levels] prefixes
    in order; prefixes below the terminal level share their terminal
    node's seed and control bit. *)
