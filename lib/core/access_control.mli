(** Access control and paywalls (§3.3–3.4).

    The CDN stores only ciphertext; a publisher hands paying subscribers
    the current epoch key out-of-band. Revocation = advancing the epoch
    and re-encrypting: subscribers renew their key with the publisher,
    revoked readers cannot, and because epoch keys are derived
    independently from the publisher's master secret (not from each
    other), an old key gives nothing about the new one. The CDN and the
    network learn only that a user has {e some} relationship with the
    publisher — never which pages they read. *)

type master
(** Publisher-held secret. *)

val master : seed:string -> master

type subscription = { mutable epoch : int; mutable key : string }
(** What a subscriber holds: the current epoch and its key. *)

val subscribe : master -> epoch:int -> subscription

val renew : master -> epoch:int -> subscription -> unit
(** Publisher-side: move a still-authorised subscriber to [epoch]. *)

(** {2 Sealed blob format} *)

val seal : master -> epoch:int -> path:string -> Lw_json.Json.t -> Lw_json.Json.t
(** [seal m ~epoch ~path v] wraps the page data for storage at [path]; the
    path is bound as AEAD associated data, so ciphertext cannot be
    replayed at a different path. The result is a small JSON envelope
    (storable like any data blob). *)

val open_ : subscription -> path:string -> Lw_json.Json.t -> (Lw_json.Json.t, string) result
(** Subscriber-side decryption. Fails for the wrong epoch (stale key after
    a rotation) or a forged/mismatched ciphertext. *)

val is_sealed : Lw_json.Json.t -> bool
