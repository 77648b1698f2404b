(** Simulation components: the agents of the simulated system.

    A component is two-phase. It declares the state variables it directly
    controls, with their initial values, and a bind function. When the
    world is assembled, the bind function resolves every name the
    component reads or writes to a slot handle ({!Frame.Bind}) and returns
    the step run at every tick. The step reads the {e previous} snapshot
    and writes the next one ({!Frame}). The kernel is double buffered, so
    a component can never observe another component's output before the
    subsequent state — the thesis's core timing assumption (§4.1.3,
    "updates to a state variable cannot be observed by agents that monitor
    the variable until the subsequent state"). *)

open Tl

type t = {
  name : string;
  outputs : (string * Value.t) list;  (** directly controlled variables, with initial values *)
  bind : Frame.binder -> Frame.t -> unit;
}

let make ~name ~outputs bind = { name; outputs; bind }

(** A component with no behaviour: holds constants (useful for parameters
    and for disabling a subsystem in ablation runs). *)
let constant ~name outputs = { name; outputs; bind = (fun _ _ -> ()) }

(** Controlled-variable names, used to detect output conflicts. *)
let controlled t = List.map fst t.outputs
