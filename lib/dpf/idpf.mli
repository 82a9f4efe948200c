(** Incremental DPFs (hierarchical point functions), after the Google
    library the paper's prototype builds on [28].

    An incremental DPF shares one GGM tree across a hierarchy of domains:
    the keys encode, for {e every} prefix length [l], the point function
    that is [values.(l-1)] at the length-[l] prefix of [alpha] and zero at
    every other length-[l] string. One key pair therefore answers queries
    at any granularity — the building block for private hierarchical
    statistics (per-TLD, per-domain, per-path billing counts; prefix-based
    heavy hitters).

    Construction: the standard BGI16 tree, plus one value correction word
    per level computed from the on-path seeds, exactly like the leaf
    correction word of a value-carrying DPF. *)

type key

val gen :
  domain_bits:int -> alpha:int -> values:string array -> Lw_crypto.Drbg.t -> key * key
(** [values] has one entry per level (length [domain_bits]); entries may
    have different lengths but each must be non-empty. *)

val party : key -> int
val domain_bits : key -> int
val value_len : key -> level:int -> int

val eval_prefix : key -> level:int -> int -> string
(** [eval_prefix k ~level p] is this party's share for the length-[level]
    prefix [p] ([1 <= level <= domain_bits], [0 <= p < 2^level]). The two
    parties' shares XOR to [values.(level-1)] iff [p] is the prefix of
    [alpha], else to zeros. *)

val eval_all_level : key -> level:int -> (int -> string -> unit) -> unit
(** Full expansion of one level in prefix order (≈2 PRG calls per node of
    that level). *)

(** {2 Additive (counting) outputs}

    XOR shares cannot be summed across clients, so hierarchical {e counting}
    (heavy hitters, per-prefix billing) uses a parallel additive output
    channel: the two parties' {!eval_prefix_count} values sum (mod 2^64)
    to 1 at the on-path prefix of each level and to 0 elsewhere. An
    aggregation server adds up its own shares over many clients — a
    uniformly random total in isolation — and only the two servers'
    combined totals reveal the per-prefix counts. *)

val eval_prefix_count : key -> level:int -> int -> int64
(** This party's additive share for a prefix. *)

val eval_all_level_counts : key -> level:int -> (int -> int64 -> unit) -> unit
