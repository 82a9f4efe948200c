(** The two-server PIR client: builds one DPF key per (non-colluding)
    server and XORs the two response shares back into the target bucket. *)

type query = {
  index : int; (** the hashed bucket index being retrieved *)
  key0 : Lw_dpf.Dpf.key; (** share for server 0 *)
  key1 : Lw_dpf.Dpf.key; (** share for server 1 *)
}

val query_index :
  domain_bits:int -> index:int -> Lw_crypto.Drbg.t -> query
(** Query a raw bucket index. *)

val query_key :
  keymap:Keymap.t -> key:string -> Lw_crypto.Drbg.t -> query
(** Query a keyword through the universe's {!Keymap}. *)

val combine : resp0:string -> resp1:string -> string
(** XOR of the two servers' shares = the bucket contents. *)

val fetch : query -> resp0:string -> resp1:string -> key:string -> string option
(** {!combine} then {!Record.decode_for_key}: [None] means the slot was
    empty or (hash-collision case) held a different key. *)

val upload_bytes : query -> int
(** Serialised size of both DPF keys — the client→server communication E3
    measures. *)
