(** Runtime fault models applied as signal interposers on component
    outputs. A fault is pure data (target, model, activation window); all
    per-run mutable state lives in a {!runtime} created fresh per
    simulation, keeping same-seed campaigns deterministic. *)

open Tl

type model =
  | Stuck_at of Value.t  (** output frozen at a constant *)
  | Dropout_hold  (** output holds the last pre-fault value *)
  | Dropout_missing
      (** numeric output replaced by NaN; non-numeric targets degrade to
          hold-last *)
  | Delay of int  (** output delayed by [k] states *)
  | Noise of float  (** additive Gaussian noise, sigma in signal units *)
  | Drift of float  (** additive ramp, signal units per second *)
  | Spike of float * float  (** (magnitude, expected spikes per second) *)
  | Intermittent of float
      (** mean gate period, seconds: alternates passing / holding with
          exponentially distributed gate durations *)

type t = {
  target : string;
  model : model;
  from_t : float;
  until_t : float;
}

val make : ?from_t:float -> ?until_t:float -> target:string -> model -> t
(** Window defaults: active for the whole run. *)

val active : t -> float -> bool

val model_name : model -> string
val pp_model : Format.formatter -> model -> unit

val pp : Format.formatter -> t -> unit
(** Prints the [--inject] SPEC syntax; inverse of {!Spec.parse}. *)

val to_string : t -> string

type runtime

val runtime : seed:int -> t -> Sim.Frame.binder -> runtime
(** Fresh per-run interposer state (delay line, PRNG, hold/drift/gate),
    bound to a world's slots: the target slot is looked up (never
    created) and a [Stuck_at] constant interned. *)

val apply : runtime -> dt:float -> Sim.Frame.t -> unit
(** Interpose the fault on the freshly computed snapshot — the frame's
    next buffer — at the frame's current time. A target absent from the
    world or from the snapshot is a no-op. A [Stuck_at] constant of
    another type than the target's, or a NaN on an int target, changes
    the cell's type. *)
