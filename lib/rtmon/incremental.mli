(** Pure incremental monitors for the past-time fragment.

    A formula is compiled once into a flat instruction array; the monitor's
    dynamic state is a plain [int array] of memory slots (booleans as 0/1,
    counters for the bounded-duration operators). Because the dynamic state
    is a small comparable vector, the same monitor drives both monitoring
    over a recorded trace and the finite product construction of the model
    checker ({!Mc.Checker}).

    Over a trace, atoms compile against its typed columns. The shapes of
    Table 5.3 — a float or int column, possibly under [Abs], compared with
    a constant or another column; a symbol column tested against a
    symbol; a boolean variable — read their cells in place and box
    nothing per state. Other shapes keep a general reader; a column that
    cannot prove the reader equivalent falls back to the per-state
    reference path.

    Equivalence with the reference semantics {!Tl.Eval.eval} is established
    by the property tests in [test/test_rtmon.ml]. *)

open Tl

exception Not_monitorable of string
(** Raised when the formula contains future operators beneath the top-level
    □ — goals with ♦ are not realizable nor monitorable (§4.5.3). *)

type t
(** A monitor: compiled formula plus current memory. Immutable — {!step}
    returns the successor. *)

val create : dt:float -> Formula.t -> t
(** Compile a past-time formula. A top-level [Always] is stripped:
    invariant monitoring checks the body at every state.
    @raise Not_monitorable if a future operator remains. *)

val mem : t -> int array
(** The dynamic state alone, for use as a model-checking product component.
    Treat as opaque and do not mutate. *)

val with_mem : t -> int array -> t

val step : t -> State.t -> bool * t
(** [step t state] evaluates one state transition, returning the formula's
    truth value in [state] and the successor monitor. The input monitor is
    not mutated. *)

val run_trace : Formula.t -> Trace.t -> bool array
(** Truth value of the formula's invariant body at every state, computed
    incrementally; agrees with [Tl.Eval.series] on the body. *)

(** {1 Degradation-aware monitoring}

    Under runtime faults (sensor dropout, NaN measurements) a monitor's
    inputs can be missing or garbage; the three-valued runner reports
    {!Inhibited} for such states instead of silently classifying. *)

type status = Pass | Fail | Inhibited

val degraded : Value.t -> bool
(** A value a monitor must refuse to judge on (NaN). *)

val inhibited : State.t -> string list -> bool
(** Is any of the given state variables missing or degraded? *)

val run_trace_status :
  ?stale:(string * float) list -> Formula.t -> Trace.t -> status array
(** Three-valued verdict per state: [Inhibited] when any variable of the
    formula is missing or NaN in that state, or when a variable listed in
    [stale] has held the exact same value for longer than its bound
    (seconds; opt-in, since hold-last dropout is indistinguishable from a
    legitimately constant signal). The monitor's memory is frozen across
    inhibited states. *)

val fails : dt:float -> status array -> Violation.interval list
(** Maximal [Fail] runs — the violation intervals. *)

val inhibitions : dt:float -> status array -> Violation.interval list
(** Maximal [Inhibited] runs. *)
