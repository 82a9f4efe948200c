module type S = sig
  type view

  val kind : string
  val modes : Zltp_mode.t list
  val domain_bits : int
  val health : unit -> int * int
  val current_epoch : unit -> int
  val oldest_epoch : unit -> int
  val set_advertised_epoch : int option -> unit
  val advertised_epoch : unit -> int option
  val set_scan_domains : int -> unit
  val pin : epoch:int -> (view, int * string) result
  val unpin : view -> unit
  val answer : view -> Lw_dpf.Dpf.key -> (string, int * string) result
  val answer_batch : view -> Lw_dpf.Dpf.key array -> (string array, int * string) result
  val spir_hint : view -> (string, int * string) result
  val spir_answer : view -> string -> (string, int * string) result
  val enclave_get : string -> (string option, int * string) result
end

type t = (module S)

let wrong_mode verb kind =
  Error (Zltp_wire.err_wrong_mode, Printf.sprintf "%s not supported by %s backend" verb kind)

let check_epoch_exact ~have ~queried =
  if queried = have then Ok ()
  else if queried > have then
    Error (Zltp_wire.err_epoch_ahead, Printf.sprintf "epoch %d not yet published" queried)
  else Error (Zltp_wire.err_epoch_retired, Printf.sprintf "epoch %d retired" queried)

let pin_error_wire ~epoch = function
  | Lw_store.Retired ->
      (Zltp_wire.err_epoch_retired, Printf.sprintf "epoch %d retired" epoch)
  | Lw_store.Ahead ->
      (Zltp_wire.err_epoch_ahead, Printf.sprintf "epoch %d not yet published" epoch)

(* An epoch-versioned engine's pin, its refusals in wire terms. The pin
   is handed to the caller, which unpins it. *)
let pin_store store ~epoch =
  match Lw_store.pin store ~epoch with
  | Ok snap -> Ok snap
  | Error e -> Error (pin_error_wire ~epoch e)

(* Advertised-epoch override, shared by every constructor: a mutable cell
   the control plane flips; [current] falls back to the backend's own
   epoch when unset. *)
let advertised () =
  let cell = ref None in
  let set v = cell := v in
  let get () = !cell in
  let current own = match !cell with Some e -> e | None -> own () in
  (set, get, current)

let versioned store : t =
  let set_adv, get_adv, current = advertised () in
  let domains = ref 1 in
  (module struct
    type view = Lw_store.snapshot

    let kind = "versioned"
    let modes = [ Zltp_mode.Pir2 ]
    let domain_bits = Lw_store.domain_bits store
    let health () = (1, 0)
    let current_epoch () = current (fun () -> Lw_store.current_epoch store)
    let oldest_epoch () = Lw_store.oldest_epoch store
    let set_advertised_epoch = set_adv
    let advertised_epoch = get_adv
    let set_scan_domains d = domains := d

    let pin = pin_store store

    let unpin snap = Lw_store.unpin store snap
    let answer snap k =
      Ok (Lw_pir.Server.answer ~domains:!domains (Lw_pir.Server.of_snapshot snap) k)

    let answer_batch snap keys =
      Ok (Lw_pir.Server.answer_batch ~domains:!domains (Lw_pir.Server.of_snapshot snap) keys)

    let spir_hint _ = wrong_mode "spir_hint" kind
    let spir_answer _ _ = wrong_mode "spir_answer" kind
    let enclave_get _ = wrong_mode "enclave_get" kind
  end)

let sharded fe : t =
  let set_adv, get_adv, current = advertised () in
  (module struct
    type view = Zltp_frontend.views

    let kind = "sharded"
    let modes = [ Zltp_mode.Pir2 ]
    let domain_bits = Zltp_frontend.domain_bits fe
    let health () = (Zltp_frontend.shard_count fe, Zltp_frontend.shards_down fe)
    let current_epoch () = current (fun () -> Zltp_frontend.announced_epoch fe)
    let oldest_epoch () = Zltp_frontend.announced_epoch fe
    let set_advertised_epoch = set_adv
    let advertised_epoch = get_adv
    let set_scan_domains d = Zltp_frontend.set_scan_domains fe d

    (* The view set read here is the one every answer on this pin scans,
       whatever refreshes happen meanwhile. *)
    let pin ~epoch =
      let vs = Zltp_frontend.current fe in
      Result.map (fun () -> vs) (check_epoch_exact ~have:(Zltp_frontend.epoch vs) ~queried:epoch)

    let unpin _ = ()

    let answer_batch vs keys =
      Result.map_error
        (fun e -> (Zltp_wire.err_degraded, e))
        (Zltp_frontend.answer_batch_result fe vs keys)

    let answer vs k = Result.map (fun shares -> shares.(0)) (answer_batch vs [| k |])

    let spir_hint _ = wrong_mode "spir_hint" kind
    let spir_answer _ _ = wrong_mode "spir_answer" kind
    let enclave_get _ = wrong_mode "enclave_get" kind
  end)

let enclave e : t =
  let set_adv, get_adv, current = advertised () in
  (module struct
    type view = unit

    let kind = "enclave"
    let modes = [ Zltp_mode.Enclave ]
    let domain_bits = 0
    let health () = (1, 0)
    let current_epoch () = current (fun () -> 0)
    let oldest_epoch () = 0
    let set_advertised_epoch = set_adv
    let advertised_epoch = get_adv
    let set_scan_domains _ = ()

    let pin ~epoch =
      match check_epoch_exact ~have:0 ~queried:epoch with Ok () -> Ok () | Error _ as er -> er

    let unpin () = ()
    let answer () _ = wrong_mode "answer" kind
    let answer_batch () _ = wrong_mode "answer_batch" kind
    let spir_hint () = wrong_mode "spir_hint" kind
    let spir_answer () _ = wrong_mode "spir_answer" kind
    let enclave_get key = Ok (Lw_oram.Enclave.get e key)
  end)

let single ?cache store : t =
  let cache =
    match cache with Some c -> c | None -> Lw_pir.Spir.Hint_cache.create Lw_pir.Spir.default_params
  in
  let set_adv, get_adv, current = advertised () in
  (module struct
    type view = Lw_store.snapshot

    let kind = "single"
    let modes = [ Zltp_mode.Single ]
    let domain_bits = Lw_store.domain_bits store
    let health () = (1, 0)
    let current_epoch () = current (fun () -> Lw_store.current_epoch store)
    let oldest_epoch () = Lw_store.oldest_epoch store
    let set_advertised_epoch = set_adv
    let advertised_epoch = get_adv
    let set_scan_domains _ = () (* the SPIR scan kernel is serial by design *)

    let pin = pin_store store

    let unpin snap = Lw_store.unpin store snap
    let answer _ _ = wrong_mode "answer" kind
    let answer_batch _ _ = wrong_mode "answer_batch" kind

    let spir_hint snap =
      (* served from the shared cache so the hint is computed once per
         epoch, not once per client; the epoch is pinned by the caller,
         so the cache's own pin cannot race a retire *)
      match Lw_pir.Spir.Hint_cache.get cache store ~epoch:(Lw_store.Snapshot.epoch snap) with
      | Ok hint -> Ok hint
      | Error e -> Error (pin_error_wire ~epoch:(Lw_store.Snapshot.epoch snap) e)

    let spir_answer snap query =
      match Lw_pir.Spir.answer snap query with
      | Ok answer -> Ok answer
      | Error e -> Error (Zltp_wire.err_bad_request, e)

    let enclave_get _ = wrong_mode "enclave_get" kind
  end)
