(** Distributed point functions (Boyle–Gilboa–Ishai, CCS'16).

    A DPF for the point function [f_{α,v}] (value [v] at index [α] of a
    [2^d] domain, zero elsewhere) is a pair of keys. Each key alone reveals
    nothing about [α] or [v]; evaluations of the two keys XOR to
    [f_{α,v}]. Two-server PIR evaluates a key over the whole domain and
    XOR-accumulates database buckets where the share bit is set — the
    per-request linear scan the paper measures (§5.1).

    Selection-bit keys terminate early: the GGM tree stops
    [min 7 d] levels above the leaves, and one more PRG call on each
    terminal seed, corrected by a 16-byte leaf correction word under the
    node's control bit, yields the 128 (or [2^d] when [d < 7]) selection
    bits below it. A key is then per tree level one 16-byte seed
    correction word plus two control bits, and one leaf correction word.
    Value-carrying keys run the tree down to every leaf and carry a
    [value_len]-byte leaf correction word. *)

type key

(** {2 Key generation} *)

val gen :
  ?value:string ->
  domain_bits:int ->
  alpha:int ->
  Lw_crypto.Drbg.t ->
  key * key
(** [gen ~domain_bits ~alpha rng] produces the two key shares for the
    selection-bit point function at [alpha]; with [?value], evaluations
    carry XOR shares of [value] at [alpha]. [domain_bits] must be in
    [1..30], [alpha] in [[0, 2^domain_bits)] and [value] at most 65535
    bytes. *)

(** {2 Accessors} *)

val party : key -> int
val domain_bits : key -> int
val value_len : key -> int

(** {2 Evaluation} *)

val eval_bit : key -> int -> int
(** [eval_bit k x] is this party's share bit at index [x]; the two
    parties' bits XOR to [1] iff [x = alpha]. *)

val eval_value : key -> int -> string
(** [eval_value k x] is this party's [value_len]-byte share at [x].
    Raises [Invalid_argument] for a selection-bit key. *)

val eval_all_bits : key -> (int -> int -> unit) -> unit
(** [eval_all_bits k f] calls [f x bit] for every [x] in domain order.
    The cost is per terminal node, not per leaf: a selection key over
    [2^d] leaves expands [2^(d-7) - 1] internal nodes (two PRG calls
    each) and converts [2^(d-7)] terminal seeds (one PRG call each), so
    [3·2^(d-7) - 2] PRG calls in all; a value key pays two PRG calls per
    leaf. *)

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

val eval_all_seeds : key -> (int -> int -> Bytes.t -> int -> unit) -> unit
(** [eval_all_seeds k f] calls [f x bit seed_buf pos] with the 16-byte leaf
    seed at [pos] in [seed_buf] (valid only during the callback); callers
    convert seeds to value shares with {!Prg.convert} when needed.
    Value-carrying keys only (a selection key has no per-leaf seeds):
    raises [Invalid_argument] for a selection-bit key. *)

val selected_indices : key -> int list
(** [selected_indices k] lists the indices where this share's bit is 1 —
    handy in tests; roughly half the domain. *)

(** {2 Serialisation} *)

val serialize : key -> string
(** Version-2 encoding: a 10-byte header, the root seed, the tree's
    correction words and the leaf correction word. *)

type decode_error =
  | Unsupported_version of int
      (** any version but 2 — in particular version-1 keys, whose trees
          ran to the leaves *)
  | Malformed of string

val decode_error_message : decode_error -> string

val deserialize : string -> (key, decode_error) result
(** Structural validation only: a syntactically valid key that was never
    produced by {!gen} still evaluates (to garbage shares) — privacy, not
    integrity, is the DPF's contract. *)

val serialized_size : domain_bits:int -> value_len:int -> int
(** Exact byte size of {!serialize} output for the given shape:
    [10 + 16 + 17·(d - min 7 d) + 16] for a selection key,
    [10 + 16 + 17·d + value_len] for a value key. A sub-key has the size
    of a fresh key over its own domain. *)

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
