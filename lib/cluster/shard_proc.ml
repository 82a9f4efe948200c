(* One shard process: versioned ZLTP server on the data plane, command
   loop on the control plane, manifest persistence between the two. *)

module Metrics = Lw_obs.Metrics

let m_refreshes = Metrics.counter "lw_cluster.shard.refreshes_total"
let m_activations = Metrics.counter "lw_cluster.shard.activations_total"
let m_warm_restarts = Metrics.counter "lw_cluster.shard.warm_restarts_total"
let m_refresh_buckets = Metrics.counter "lw_cluster.shard.refresh_buckets_total"

(* the shard store's keep window: epochs a client may still pin *)
let keep = 3

let snapshot_bytes snap =
  let n = Lw_store.Snapshot.size snap in
  let buf = Buffer.create (Lw_store.Snapshot.total_bytes snap) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Lw_store.Snapshot.get snap i)
  done;
  Buffer.contents buf

let all_zero s = String.for_all (fun c -> c = '\000') s

(* Rebuild the store from the manifest when one exists for this geometry:
   [create ~initial_epoch:(e-1)] + one seal lands the epoch counter
   exactly where the dead incarnation left it, so supervisor catch-up is
   an incremental diff, not a full push. *)
let build_store (spec : Spec.t) =
  match Manifest.load ~dir:spec.state_dir ~shard_id:spec.shard_id with
  | Some (m, data)
    when m.Manifest.domain_bits = spec.domain_bits
         && m.Manifest.bucket_size = spec.bucket_size
         && m.Manifest.epoch > 0 ->
      let store =
        Lw_store.create ~keep ~initial_epoch:(m.Manifest.epoch - 1)
          ~domain_bits:spec.domain_bits ~bucket_size:spec.bucket_size ()
      in
      let w = Lw_store.writer store in
      let bs = spec.bucket_size in
      for i = 0 to (1 lsl spec.domain_bits) - 1 do
        let bucket = String.sub data (i * bs) bs in
        if not (all_zero bucket) then Lw_store.Writer.set w i bucket
      done;
      ignore (Lw_store.Writer.seal w);
      Metrics.incr m_warm_restarts;
      (store, min m.Manifest.advertised m.Manifest.epoch)
  | _ ->
      ( Lw_store.create ~keep ~domain_bits:spec.domain_bits
          ~bucket_size:spec.bucket_size (),
        0 )

let persist (spec : Spec.t) store ~advertised =
  let snap = Lw_store.current store in
  Manifest.save ~dir:spec.state_dir
    {
      Manifest.shard_id = spec.shard_id;
      domain_bits = spec.domain_bits;
      bucket_size = spec.bucket_size;
      epoch = Lw_store.Snapshot.epoch snap;
      advertised;
    }
    ~data:(snapshot_bytes snap)

(* Seal the pushed ranges as [target_epoch]. Idempotent on replay
   (target already sealed); [base_epoch = -1] is an unconditional full
   push, otherwise the shard must sit exactly at [base_epoch]. *)
let apply_refresh (spec : Spec.t) store ~base_epoch ~target_epoch ~ranges =
  let cur = Lw_store.current_epoch store in
  if target_epoch <= cur then Ok cur
  else if base_epoch >= 0 && base_epoch <> cur then
    Error (Printf.sprintf "refresh diffs against epoch %d but shard holds %d" base_epoch cur)
  else
    match
      let w = Lw_store.writer store in
      let bs = spec.bucket_size in
      List.iter
        (fun { Ctl.base; count; data } ->
          if String.length data <> count * bs then
            failwith
              (Printf.sprintf "range [%d,+%d) carries %d bytes, want %d" base count
                 (String.length data) (count * bs));
          if base + count > Lw_store.size store then failwith "range exceeds domain";
          for k = 0 to count - 1 do
            let bucket = String.sub data (k * bs) bs in
            if all_zero bucket then Lw_store.Writer.clear w (base + k)
            else Lw_store.Writer.set w (base + k) bucket
          done;
          Metrics.add m_refresh_buckets count)
        ranges;
      ignore (Lw_store.Writer.seal ~epoch:target_epoch w)
    with
    | () -> Ok target_epoch
    | exception (Failure e | Invalid_argument e) -> Error e

let main (spec : Spec.t) =
  (* peers (supervisor, clients) can vanish at any moment; their death
     must read as Endpoint.Closed, not a fatal SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir spec.state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let store, advertised0 = build_store spec in
  let advertised = ref advertised0 in
  let server =
    Lightweb.Zltp_server.create
      ~server_id:(Printf.sprintf "shard-%d" spec.shard_id)
      ~hash_key:(Lw_store.hash_key store) ~blob_size:spec.bucket_size
      (Lightweb.Zltp_backend.versioned store)
  in
  (* the advertised epoch is always an explicit override: catch-up seals
     epochs ahead of the announcement, and only Activate moves it *)
  Lightweb.Zltp_server.set_advertised_epoch server (Some !advertised);
  let data_srv =
    Lw_net.Tcp.serve ~host:spec.ctl_host ~port:0 (fun ep ->
        Lightweb.Zltp_server.serve server ep)
  in
  let refreshes_seen = ref 0 in
  let ctl =
    Lw_net.Tcp.connect ~connect_timeout_s:10. ~host:spec.ctl_host ~port:spec.ctl_port ()
  in
  Fun.protect
    ~finally:(fun () -> ctl.Lw_net.Endpoint.close ())
    (fun () ->
      let reply m = Ctl.send ctl m in
      reply
        (Ctl.Register
           {
             shard_id = spec.shard_id;
             pid = Unix.getpid ();
             zltp_port = Lw_net.Tcp.port data_srv;
             epoch = Lw_store.current_epoch store;
             advertised = !advertised;
           });
      if spec.sabotage.Spec.die_after_register then exit 70;
      let running = ref true in
      while !running do
        match Ctl.recv ctl with
        | exception (Lw_net.Endpoint.Closed | Lw_net.Endpoint.Timeout) ->
            (* supervisor gone; die quietly and let the next one respawn us *)
            running := false
        | Error e -> reply (Ctl.Ctl_err { message = e })
        | Ok (Ctl.Refresh { base_epoch; target_epoch; ranges }) -> (
            incr refreshes_seen;
            (match spec.sabotage.Spec.die_on_refresh with
            | Some n when n = !refreshes_seen -> exit 70
            | _ -> ());
            match apply_refresh spec store ~base_epoch ~target_epoch ~ranges with
            | Error message -> reply (Ctl.Ctl_err { message })
            | Ok epoch ->
                Metrics.incr m_refreshes;
                persist spec store ~advertised:!advertised;
                reply (Ctl.Ack { epoch }))
        | Ok (Ctl.Activate { epoch }) ->
            if epoch > Lw_store.current_epoch store then
              reply
                (Ctl.Ctl_err
                   {
                     message =
                       Printf.sprintf "cannot advertise unsealed epoch %d (at %d)" epoch
                         (Lw_store.current_epoch store);
                   })
            else begin
              advertised := epoch;
              Lightweb.Zltp_server.set_advertised_epoch server (Some epoch);
              Metrics.incr m_activations;
              persist spec store ~advertised:epoch;
              reply (Ctl.Ack { epoch = Lw_store.current_epoch store })
            end
        | Ok Ctl.Scrape -> reply (Ctl.Scrape_reply { metrics = Metrics.snapshot () })
        | Ok Ctl.Quit ->
            reply (Ctl.Ack { epoch = Lw_store.current_epoch store });
            running := false
        | Ok (Ctl.Register _ | Ctl.Ack _ | Ctl.Ctl_err _ | Ctl.Scrape_reply _) ->
            reply (Ctl.Ctl_err { message = "unexpected control message" })
      done);
  Lw_net.Tcp.shutdown data_srv;
  exit 0
