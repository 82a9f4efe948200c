(** The lightweb browser (§3.2): a minimal client that speaks ZLTP and
    enforces the traffic discipline that makes browsing unobservable.

    Per page view the browser performs {e at most} one code-blob fetch
    (cache miss on a new domain) and {e exactly}
    [fetches_per_page] data-blob fetches — the plan returned by the
    domain's code is truncated or padded with dummy fetches to the fixed
    count. The k data fetches go out as one {!Zltp_client.get_batch}, so
    in the PIR modes the page's data names one epoch. Domain separation is enforced twice:
    code may only plan fetches inside its own domain, and local storage is
    partitioned per domain.

    {!events} is the traffic shape an on-path attacker sees: which session
    (code/data) carried a fetch, and nothing else. The invariance tests
    assert it is identical for any two pages in a universe. *)

type event = Code_fetch | Data_fetch

type page = {
  path : string;
  text : string; (** rendered page text *)
  code_cache_hit : bool;
  planned : int; (** fetches the code asked for (before padding) *)
  fetched : int; (** always the universe's fixed count *)
}

type t

val create :
  ?fetches_per_page:int ->
  ?gas:int ->
  ?rng:Lw_crypto.Drbg.t ->
  code:Zltp_client.t ->
  data:Zltp_client.t ->
  unit ->
  t
(** [fetches_per_page] defaults to 5 (the paper's example); [gas] bounds
    each script invocation. *)

val browse : t -> string -> (page, string) result

(** {2 Local state} *)

val storage_get : t -> domain:string -> string -> Lw_json.Json.t option
val storage_set : t -> domain:string -> string -> Lw_json.Json.t -> unit
(** User-initiated writes (e.g. typing a postal code into weather.com). *)

val evict_code : t -> string -> unit

(** {2 Paywalls} *)

val add_subscription : t -> domain:string -> Access_control.subscription -> unit
(** Sealed data blobs from [domain] are transparently unsealed before
    being handed to [render]; without a subscription the script sees the
    sealed envelope. *)

(** {2 Observability} *)

val events : t -> event list
(** One event per fetch slot: [Code_fetch] for a code-blob miss, then one
    [Data_fetch] per data slot, k per page. The data slots of a page are
    one batch: in Pir2 mode all k ride a single [Pir_batch] exchange per
    data server; in Single and Enclave modes they are k exchanges. *)

val clear_events : t -> unit
val pages_visited : t -> int
