(** Scripted stimuli: driver and environment inputs for evaluation
    scenarios, expressed as timed set-events on input variables. *)

open Tl

type event = { at : float; var : string; value : Value.t }

val set : float -> string -> Value.t -> event
val press : float -> string -> event
(** [press t v] sets boolean [v] true at time [t]. *)

val release : float -> string -> event

val component : name:string -> init:(string * Value.t) list -> event list -> Component.t
(** A component that owns the scripted variables: each takes its initial
    value until an event fires, then holds the event value (later events
    override earlier ones). Events need not be sorted; an event whose time
    is NaN never fires. The bound step is stateful: build a fresh
    component per run. *)

val signal : name:string -> var:string -> (float -> float) -> Component.t
(** A float signal driven by a function of time (e.g. a lead vehicle's
    scripted speed profile). *)
