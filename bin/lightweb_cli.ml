(* The lightweb command line.

     lightweb serve --sites DIR --port 9000     host a universe over TCP
     lightweb browse PATH --port 9000           browse a page privately
     lightweb get KEY --port 9000               raw private-GET on the data store
     lightweb estimate [--gib N --pages N ...]  the paper's cost model
     lightweb modes                             ZLTP modes and assumptions

   `serve` binds four ports: code servers on PORT and PORT+1, data
   servers on PORT+2 and PORT+3 — the two logical non-colluding ZLTP
   servers for each session kind. *)

module Json = Lw_json.Json
open Lightweb
open Cmdliner

(* Both endpoints either end up owned by the client (which closes them
   on [close]/failover) or are closed here when the second dial or the
   handshake fails — a half-connected pair never leaks a socket. *)
let connect_pair ~host ~port =
  let e0 = Lw_net.Tcp.connect ~host ~port () in
  let e1 =
    try Lw_net.Tcp.connect ~host ~port:(port + 1) ()
    with e ->
      e0.Lw_net.Endpoint.close ();
      raise e
  in
  match Zltp_client.connect [ e0; e1 ] with
  | Ok _ as ok -> ok
  | Error _ as err ->
      e0.Lw_net.Endpoint.close ();
      e1.Lw_net.Endpoint.close ();
      err
  | exception e ->
      e0.Lw_net.Endpoint.close ();
      e1.Lw_net.Endpoint.close ();
      raise e

(* ---------------- universe assembly ---------------- *)

let universe_of_sites sites_dir =
  match Site_loader.load_all sites_dir with
  | Error e -> Error e
  | Ok sites ->
      let universe = Universe.create ~name:"cli-universe" Universe.default_geometry in
      let rec push_all = function
        | [] -> Ok universe
        | site :: rest -> (
            match Publisher.push universe ~publisher:("cli:" ^ site.Publisher.domain) site with
            | Ok r ->
                Printf.printf "loaded %s (%d data blobs%s)\n%!" site.Publisher.domain
                  r.Publisher.data_pushed
                  (match r.Publisher.renamed with
                  | [] -> ""
                  | rs -> Printf.sprintf ", %d renamed on collision" (List.length rs));
                push_all rest
            | Error e -> Error (Printf.sprintf "loading %s: %s" site.Publisher.domain e))
      in
      push_all sites

let assemble ~sites_dir ~snapshot =
  match (sites_dir, snapshot) with
  | Some dir, None -> universe_of_sites dir
  | None, Some file ->
      Result.map
        (fun u ->
          Printf.printf "loaded snapshot %s: %d domains, %d data blobs\n%!" file
            (List.length (Universe.domains u))
            (Universe.page_count u);
          u)
        (Universe_store.load ~path:file)
  | Some _, Some _ -> Error "pass either --sites or --snapshot, not both"
  | None, None -> Error "pass --sites DIR or --snapshot FILE"

(* ---------------- serve ---------------- *)

let do_serve sites_dir snapshot port shard_bits verbose =
  match assemble ~sites_dir ~snapshot with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok universe -> (
      let domain_bits = (Universe.geometry universe).Universe.data_domain_bits in
      match shard_bits with
      | Some sb when sb < 1 || sb >= domain_bits ->
          Printf.eprintf "error: --shard-bits %d must be in [1, %d) for a 2^%d data domain\n" sb
            domain_bits domain_bits;
          1
      | _ ->
          let c0, c1 = Universe.code_servers universe in
          let d0, d1 =
            match shard_bits with
            | None -> Universe.data_servers universe
            | Some sb ->
                Printf.printf "data plane sharded across %d shards per logical server\n" (1 lsl sb);
                Universe.sharded_data_servers universe ~shard_bits:sb
          in
          let spawn p server =
            Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:p (fun ep ->
                if verbose then Printf.printf "connection on port %d\n%!" p;
                Zltp_server.serve server ep)
          in
          (* SIGINT or SIGTERM ends the wait below. The handler only sets a
             flag: a thread blocked in [Condition.wait] never runs an OCaml
             signal handler, so the main thread wakes on a short sleep to
             read it. *)
          let stop = Atomic.make false in
          List.iter
            (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
            [ Sys.sigint; Sys.sigterm ];
          let servers =
            [ spawn port c0; spawn (port + 1) c1; spawn (port + 2) d0; spawn (port + 3) d1 ]
          in
          List.iter (fun (k, v) -> Printf.printf "  %-18s %d\n" k v) (Universe.stats universe);
          Printf.printf
            "serving: code servers on %d,%d; data servers on %d,%d (ctrl-c to stop)\n%!" port
            (port + 1) (port + 2) (port + 3);
          while not (Atomic.get stop) do
            Thread.delay 0.1
          done;
          List.iter Lw_net.Tcp.shutdown servers;
          0)

(* ---------------- browse ---------------- *)

let do_browse path host port =
  match connect_pair ~host ~port with
  | Error e ->
      Printf.eprintf "code session: %s\n" e;
      1
  | Ok code_client -> (
      match connect_pair ~host ~port:(port + 2) with
      | Error e ->
          Printf.eprintf "data session: %s\n" e;
          1
      | Ok data_client -> (
          let browser = Browser.create ~code:code_client ~data:data_client () in
          match Browser.browse browser path with
          | Ok page ->
              print_endline page.Browser.text;
              Printf.eprintf "[%d private data fetches, fixed; code cache %s]\n"
                page.Browser.fetched
                (if page.Browser.code_cache_hit then "hit" else "miss");
              Zltp_client.close code_client;
              Zltp_client.close data_client;
              0
          | Error e ->
              Printf.eprintf "error: %s\n" e;
              1))

(* ---------------- get ---------------- *)

let do_get key host port =
  match connect_pair ~host ~port:(port + 2) with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok client -> (
      match Zltp_client.get client key with
      | Ok (Some v) ->
          print_endline v;
          0
      | Ok None ->
          Printf.eprintf "no record under %s\n" key;
          2
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          1)

(* ---------------- estimate ---------------- *)

let do_estimate gib pages avg_kib domain_driven =
  let open Lw_sim in
  let datasets =
    match (gib, pages) with
    | None, None ->
        [
          (Cost_model.of_profile Corpus.c4, Cost_model.Storage_driven);
          (Cost_model.of_profile Corpus.wikipedia, Cost_model.Domain_driven);
        ]
    | _ ->
        let gib = Option.value gib ~default:305. in
        let pages = Option.value pages ~default:360e6 in
        [
          ( {
              Cost_model.name = "custom";
              total_bytes = gib *. Corpus.gib;
              pages;
              avg_page_bytes = avg_kib *. 1024.;
            },
            if domain_driven then Cost_model.Domain_driven else Cost_model.Storage_driven );
        ]
  in
  Printf.printf "per-shard model: %.0f ms/request (%.0f ms DPF + %.0f ms scan) on %s\n\n"
    (1000. *. Cost_model.paper_shard.Cost_model.request_seconds)
    (1000. *. Cost_model.paper_shard.Cost_model.dpf_seconds)
    (1000. *. Cost_model.paper_shard.Cost_model.scan_seconds)
    Cost_model.c5_large.Cost_model.name;
  List.iter
    (fun (ds, policy) ->
      let e = Cost_model.estimate ~policy ds Cost_model.paper_shard Cost_model.c5_large in
      Format.printf "%a@." Cost_model.pp_estimate e;
      Printf.printf "  monthly user cost (50 pages/day x 5 GETs): $%.2f\n"
        (Cost_model.monthly_user_cost Cost_model.paper_user
           ~request_cost_usd:e.Cost_model.request_cost_usd);
      Printf.printf "  projected request cost in 5 years: $%.5f\n\n"
        (Cost_model.projected_cost ~years:5. e.Cost_model.request_cost_usd))
    datasets;
  0

(* ---------------- modes ---------------- *)

let do_modes () =
  List.iter
    (fun mode ->
      Printf.printf "%s\n" (Zltp_mode.name mode);
      List.iter (fun a -> Printf.printf "  - %s\n" a) (Zltp_mode.assumptions mode))
    Zltp_mode.all;
  0

(* ---------------- cmdliner wiring ---------------- *)

(* --metrics: after the command finishes, dump the process-wide lw_obs
   registry (retry/failover counters, per-shard answer histograms, fault
   injection totals, ...) to stderr so stdout stays the page/record. *)
let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"On exit, dump the observability registry (Prometheus text) to stderr.")

let finish ~metrics code =
  if metrics then begin
    prerr_string (Lw_obs.Export.to_prometheus ());
    flush stderr
  end;
  code

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")

let port_arg =
  Arg.(value & opt int 9000 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Base port (4 are used).")

let sites_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "sites" ] ~docv:"DIR" ~doc:"Directory of <domain>/code.ls + pages/.")

let snapshot_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "snapshot" ] ~docv:"FILE" ~doc:"Universe snapshot produced by $(b,snapshot).")

let serve_cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log connections.") in
  let shard_bits =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-bits" ] ~docv:"N"
          ~doc:"Shard the data plane across $(docv) levels (2^N shards per logical server).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Host a lightweb universe over TCP ZLTP.")
    Term.(
      const (fun sites snap port sb v metrics ->
          finish ~metrics (do_serve sites snap port sb v))
      $ sites_arg $ snapshot_arg $ port_arg $ shard_bits $ verbose $ metrics_arg)

let do_snapshot sites_dir out =
  match universe_of_sites sites_dir with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok u -> (
      match Universe_store.save u ~path:out with
      | Ok () ->
          Printf.printf "wrote %s (%d domains, %d data blobs)\n" out
            (List.length (Universe.domains u))
            (Universe.page_count u);
          0
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          1)

let snapshot_cmd =
  let sites =
    Arg.(
      required
      & opt (some dir) None
      & info [ "sites" ] ~docv:"DIR" ~doc:"Directory of <domain>/code.ls + pages/.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "snapshot" ~doc:"Build a universe from a site tree and save it to one file.")
    Term.(const do_snapshot $ sites $ out)

let browse_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  Cmd.v
    (Cmd.info "browse" ~doc:"Privately browse a lightweb path.")
    Term.(
      const (fun path host port metrics -> finish ~metrics (do_browse path host port))
      $ path $ host_arg $ port_arg $ metrics_arg)

let get_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v
    (Cmd.info "get" ~doc:"Raw private-GET against the data universe.")
    Term.(
      const (fun key host port metrics -> finish ~metrics (do_get key host port))
      $ key $ host_arg $ port_arg $ metrics_arg)

let estimate_cmd =
  let gib = Arg.(value & opt (some float) None & info [ "gib" ] ~docv:"GIB" ~doc:"Dataset size.") in
  let pages =
    Arg.(value & opt (some float) None & info [ "pages" ] ~docv:"N" ~doc:"Page count.")
  in
  let avg = Arg.(value & opt float 0.9 & info [ "avg-kib" ] ~docv:"KIB" ~doc:"Average page KiB.") in
  let dd = Arg.(value & flag & info [ "domain-driven" ] ~doc:"Shard by key domain, not storage.") in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Reproduce the paper's deployment cost estimates (Table 2, §4).")
    Term.(const do_estimate $ gib $ pages $ avg $ dd)

let modes_cmd =
  Cmd.v
    (Cmd.info "modes" ~doc:"List ZLTP modes of operation and their assumptions.")
    Term.(const do_modes $ const ())

let () =
  let info =
    Cmd.info "lightweb" ~version:"0.1.0"
      ~doc:"Private web browsing without all the baggage (HotNets '23), in OCaml."
  in
  exit (Cmd.eval' (Cmd.group info [ serve_cmd; snapshot_cmd; browse_cmd; get_cmd; estimate_cmd; modes_cmd ]))
