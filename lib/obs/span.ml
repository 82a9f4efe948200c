(* Lightweight span tracing. [with_ ~name f] times [f] against the
   process span clock and records the duration into a histogram named
   after the full span path ("span.<outer>.<inner>"), so nesting gives a
   per-phase breakdown for free. The active path is tracked per-domain
   (Domain.DLS); sys-threads within one domain share a stack, which is
   fine for this codebase (domains are the unit of parallel answer
   work). *)

let clock_cell = Atomic.make (Clock.real ())
let set_clock c = Atomic.set clock_cell c
let clock () = Atomic.get clock_cell

let stack_key : string list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let with_ ~name f =
  let c = Atomic.get clock_cell in
  let outer = Domain.DLS.get stack_key in
  let path = name :: outer in
  Domain.DLS.set stack_key path;
  let label = String.concat "." (List.rev path) in
  let t0 = Clock.now c in
  Fun.protect
    ~finally:(fun () ->
      let dt = Clock.now c -. t0 in
      Metrics.observe (Metrics.histogram ("span." ^ label)) dt;
      Domain.DLS.set stack_key outer)
    f
