(** Lightweight span tracing on top of {!Metrics} histograms.

    [with_ ~name f] runs [f], timing it against the process span clock,
    and records the elapsed seconds into the histogram
    ["span." ^ path] where [path] is the dot-joined nesting of active
    span names in the current domain — e.g. an ["outer"] span containing
    the frontend answer span records both ["span.outer"] and
    ["span.outer.zltp.frontend.answer"].
    Durations are recorded even when [f] raises.

    The clock defaults to {!Clock.real}; tests and the chaos harness
    install a virtual clock with {!set_clock} so span durations are
    deterministic (exactly the simulated seconds slept). When metrics
    are disabled ({!Metrics.set_enabled}[ false]) spans cost one atomic
    read and no clock calls. *)

val set_clock : Clock.t -> unit
(** Install the clock used by all spans (process-wide). *)

val clock : unit -> Clock.t
(** The currently installed span clock — the canonical way for
    instrumented code to read time without touching
    [Unix.gettimeofday]. *)

val with_ : name:string -> (unit -> 'a) -> 'a

val current : unit -> string list
(** Active span names in this domain, outermost first. *)
