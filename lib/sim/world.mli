(** The simulation kernel: synchronous, discrete-time, double-buffered.

    {!make} resolves every signal name to an integer slot once — the
    outputs and [extra_init] variables the components declare, every name
    their bind functions ask for, and every variable a scripted event
    writes — and binds every component's step ({!Component}). A run
    keeps the tick state in two preallocated typed buffers ({!Frame}).
    At each tick the kernel copies [prev] (the snapshot of tick [i−1])
    into [next], every component reads [prev] and writes [next],
    variables not written keep their previous values, an optional
    interposer rewrites [next], and the buffers swap. The recorded trace
    therefore has exactly the one-state observation delay assumed by the
    thesis's goal semantics. Rows are recorded by copying each present
    slot straight into its trace column. *)

open Tl

exception Conflict of string
(** Two components declare direct control of the same variable. The thesis
    relaxes KAOS's strict single-controller rule (§4.2), so conflicts are
    only rejected when [check_conflicts] is true (the default). *)

type t

val make :
  ?check_conflicts:bool ->
  ?extra_init:(string * Value.t) list ->
  dt:float ->
  Component.t list ->
  t
(** Resolve the slots and bind the components. When several declarations
    give a variable an initial value, the last one wins ([extra_init]
    first, then the components in order).
    @raise Conflict per [check_conflicts]. *)

val run :
  ?stop:(Frame.binder -> Frame.t -> bool) ->
  ?transform:(Frame.binder -> Frame.t -> unit) ->
  until:float ->
  t ->
  Trace.t
(** Simulate from time 0 to [until] seconds, recording every snapshot (the
    initial state is state 0 at time 0). [stop] and [transform] are
    two-phase like components: each is bound against the world's slots
    once, before the first tick.

    [stop] terminates the run early when it returns true on a freshly
    computed snapshot (the thesis's runs end early on collision), which it
    reads as the frame's previous snapshot; the terminating snapshot is
    included.

    [transform] interposes on every freshly computed snapshot — the
    frame's next buffer, after every component has stepped — before it
    is recorded or tested by [stop]. This is the runtime fault-injection
    hook: with the double-buffered kernel, an interposed value is exactly
    what every component and monitor observes on the following tick. The
    initial state is not transformed.

    Each run bumps the obs counters [sim.runs] by one and [sim.steps] by
    the number of states recorded. *)
