(** Simulation components: the agents of the simulated system.

    A component is two-phase. It declares the state variables it directly
    controls, with their initial values, and a bind function. When the
    world is assembled ({!World.make}), the bind function resolves every
    name the component reads or writes to a typed slot handle
    ({!Frame.Bind}) and returns the step run at every tick. The step
    reads the {e previous} snapshot and writes the next one through those
    handles ({!Frame}): no name lookup and, for float, bool and symbol
    cells, no allocation. The kernel is double buffered, so a component
    can never observe another component's output before the subsequent
    state — the thesis's core timing assumption (§4.1.3). *)

open Tl

type t = {
  name : string;
  outputs : (string * Value.t) list;
      (** directly controlled variables, with initial values *)
  bind : Frame.binder -> Frame.t -> unit;
      (** resolve names once; the returned step runs every tick *)
}

val make :
  name:string -> outputs:(string * Value.t) list -> (Frame.binder -> Frame.t -> unit) -> t

val constant : name:string -> (string * Value.t) list -> t
(** A component with no behaviour: holds constants (useful for parameters
    and for disabling a subsystem in ablation runs). *)

val controlled : t -> string list
(** Controlled-variable names, used to detect output conflicts. *)
