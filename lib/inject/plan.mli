(** An injection plan: campaign seed + faults. Pure, closure-free data that
    marshals deterministically (it extends the scenario outcome-cache
    digest); interposer state is rebuilt fresh for every run. *)



type t = { seed : int; faults : Fault.t list }

val make : ?seed:int -> Fault.t list -> t
val empty : t
val is_empty : t -> bool

val interposer : dt:float -> t -> Sim.Frame.binder -> Sim.Frame.t -> unit
(** A stateful per-run interposer; pass to [Sim.World.run ~transform] (via
    [Vehicle.System.run ~interpose]). Bound to the world's slots once, it
    then rewrites the frame's next buffer every tick. Fault [i] draws from
    a private PRNG seeded [Prng.derive seed i]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
