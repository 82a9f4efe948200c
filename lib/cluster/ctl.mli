(** The cluster control-channel protocol.

    A shard process dials the supervisor's control port right after it
    binds its ZLTP data port, sends one [Register], and then serves
    supervisor-issued commands over the same connection for its whole
    life — the supervisor is the TCP {e server} of the control plane, so
    shards can bind their data port to 0 and never need a pre-agreed
    port map.

    The channel is deliberately narrow (see SECURITY.md): everything it
    carries is public operational state — epoch numbers, liveness,
    bucket ranges of a publisher diff, metric aggregates. No message
    ever depends on any client query, so a control-plane observer learns
    nothing a ZLTP traffic observer would not already know.

    Framing rides the same {!Lw_net.Frame} transport as ZLTP; payloads
    are JSON (bucket data hex-encoded, a metrics snapshot as data), so
    the control plane favours debuggability over throughput — the data
    it moves is bounded by publisher churn, not query traffic. *)

type range = {
  base : int;  (** first bucket index of the run *)
  count : int;  (** buckets in the run *)
  data : string;  (** [count * bucket_size] raw bytes *)
}

type msg =
  (* shard -> supervisor *)
  | Register of {
      shard_id : int;
      pid : int;
      zltp_port : int;
      epoch : int;  (** sealed epoch after warm-restart recovery (0 = cold) *)
      advertised : int;  (** epoch the shard currently announces to clients *)
    }
  | Ack of { epoch : int }  (** command done; [epoch] = shard's sealed epoch *)
  | Ctl_err of { message : string }
  | Scrape_reply of { metrics : Lw_obs.Metrics.snapshot_item list }
      (** the shard's {!Lw_obs.Metrics.snapshot}: counters, gauges, and
          each histogram's count, sum, max and bucket counts by index
          (its quantiles are recomputed from them on receipt) *)
  (* supervisor -> shard *)
  | Refresh of {
      base_epoch : int;
          (** epoch the ranges diff against; [-1] = unconditional full
              replacement (the ranges cover the whole domain) *)
      target_epoch : int;  (** epoch to seal as; must exceed the shard's *)
      ranges : range list;
    }
  | Activate of { epoch : int }  (** announce [epoch] to clients from now on *)
  | Scrape
  | Quit

val send : Lw_net.Endpoint.t -> msg -> unit
(** [send ep m] — {!encode} + [ep.send]; raises like [Endpoint.send]. *)

val recv : Lw_net.Endpoint.t -> (msg, string) result
(** [recv ep] — [ep.recv] + {!decode}; transport exceptions propagate,
    an undecodable frame is [Error]. *)
