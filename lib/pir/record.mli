(** Self-describing key-value records inside fixed-size buckets.

    Keyword PIR returns a whole bucket; the embedded key lets the client
    check it got the record it asked for (a hash collision returns someone
    else's record, which the client must detect — §5.1's "the publisher can
    simply select another key name" failure mode). *)

val overhead : int
(** Bytes of framing added to [key ++ value]. *)

val encode : bucket_size:int -> key:string -> value:string -> string
(** [encode ~bucket_size ~key ~value] frames and zero-pads to exactly
    [bucket_size] bytes. Raises [Invalid_argument] when the record does
    not fit or the key is empty/oversized. *)

val decode : string -> (string * string) option
(** [decode bucket] is [Some (key, value)] for a framed bucket, [None] for
    an empty (all-zero) or corrupt one. *)

val decode_for_key : key:string -> string -> string option
(** [decode_for_key ~key bucket] is the value iff the bucket holds a record
    for exactly [key]. *)
