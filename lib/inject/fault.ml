(** Runtime fault models, applied as signal interposers on the simulation
    snapshot (the fault-injection direction of Gleirscher & Kugele's
    pattern survey; cf. the Fig. 2.2 fault-tree branch "object detection
    misses object that is there").

    A fault is *pure data*: target signal, model, activation window, and
    (implicitly, via its position in a {!Plan}) a derived PRNG seed. All
    mutable per-run state lives in a {!runtime} created fresh for every
    simulation, which is what keeps same-seed campaigns bit-for-bit
    reproducible on the domain pool. A runtime is bound to the world's
    slots once: it resolves its target slot and interns its constant, then
    works on the kernel's slot frame, copying the target's cell out of the
    next buffer and back without boxing it.

    Because the kernel is double-buffered, an interposed value is what every
    downstream reader — feature subsystems, the arbiter, the monitors —
    observes on the next tick. Faults on sensor outputs therefore behave
    exactly like sensor faults; faults on plant-owned integrator state would
    alter the physics itself and are not what campaigns target. *)

open Tl

type model =
  | Stuck_at of Value.t  (** output frozen at a constant *)
  | Dropout_hold  (** output holds the last pre-fault value *)
  | Dropout_missing
      (** numeric output replaced by NaN (a missing measurement); non-numeric
          targets degrade to hold-last *)
  | Delay of int  (** output delayed by [k] states *)
  | Noise of float  (** additive Gaussian noise, sigma in signal units *)
  | Drift of float  (** additive ramp, signal units per second *)
  | Spike of float * float
      (** [(magnitude, rate)]: one-state additive spikes, expected [rate]
          spikes per second *)
  | Intermittent of float
      (** mean gate period in seconds: the signal alternates between passing
          and holding, with exponentially distributed gate durations *)

type t = {
  target : string;  (** the interposed state variable *)
  model : model;
  from_t : float;  (** activation window start, seconds (inclusive) *)
  until_t : float;  (** activation window end, seconds *)
}

let make ?(from_t = 0.) ?(until_t = infinity) ~target model =
  { target; model; from_t; until_t }

let active f now = now >= f.from_t -. 1e-12 && now <= f.until_t +. 1e-12

let model_name = function
  | Stuck_at _ -> "stuck"
  | Dropout_hold -> "hold"
  | Dropout_missing -> "nan"
  | Delay _ -> "delay"
  | Noise _ -> "noise"
  | Drift _ -> "drift"
  | Spike _ -> "spike"
  | Intermittent _ -> "flicker"

let pp_value ppf = function
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Int i -> Fmt.int ppf i
  | Value.Float f -> Fmt.pf ppf "%g" f
  | Value.Sym s -> Fmt.string ppf s

let pp_model ppf = function
  | Stuck_at v -> Fmt.pf ppf "stuck=%a" pp_value v
  | Dropout_hold -> Fmt.string ppf "hold"
  | Dropout_missing -> Fmt.string ppf "nan"
  | Delay k -> Fmt.pf ppf "delay=%d" k
  | Noise sigma -> Fmt.pf ppf "noise=%g" sigma
  | Drift rate -> Fmt.pf ppf "drift=%g" rate
  | Spike (mag, rate) -> Fmt.pf ppf "spike=%g/%g" mag rate
  | Intermittent period -> Fmt.pf ppf "flicker=%g" period

(** The [--inject] SPEC syntax: [MODEL:TARGET[@FROM..UNTIL]]. *)
let pp ppf f =
  Fmt.pf ppf "%a:%s" pp_model f.model f.target;
  if f.from_t > 0. || f.until_t < infinity then
    if f.until_t = infinity then Fmt.pf ppf "@@%g.." f.from_t
    else Fmt.pf ppf "@@%g..%g" f.from_t f.until_t

let to_string f = Fmt.str "%a" pp f

(* ------------------------------------------------------------------ *)
(* Per-run mutable state                                                *)

module Frame = Sim.Frame
module Cell = Sim.Frame.Cell

type runtime = {
  fault : t;
  gen : Prng.t;
  target : Value.t Frame.slot option;  (** [None]: the world lacks the signal *)
  stuck : Cell.t;  (** the [Stuck_at] constant, interned once *)
  cur : Cell.t;  (** the target's freshly computed cell *)
  last : Cell.t;  (** last value passed through un-faulted; absent = none *)
  ring : Cell.t array;  (** delay line (fed every tick, window or not) *)
  mutable head : int;
  mutable len : int;
  acc : floatarray;  (** [| accumulated drift ramp; seconds until the gate toggles |] *)
  mutable gate_passing : bool;  (** intermittent: currently transparent? *)
}

let drift = 0
let gate_left = 1

let runtime ~seed fault b =
  let delay = match fault.model with Delay k -> max 1 (k + 1) | _ -> 1 in
  {
    fault;
    gen = Prng.create seed;
    target = Frame.Bind.lookup b fault.target;
    stuck = (match fault.model with Stuck_at x -> Cell.of_value b x | _ -> Cell.make ());
    cur = Cell.make ();
    last = Cell.make ();
    ring = Array.init delay (fun _ -> Cell.make ());
    head = 0;
    len = 0;
    acc = Float.Array.make 2 0.;
    gate_passing = true;
  }

(* The delay line: push [v]; past [k] entries, serve the oldest. *)
let delayed rt k v =
  let cap = Array.length rt.ring in
  Cell.blit ~src:v ~dst:rt.ring.((rt.head + rt.len) mod cap);
  rt.len <- rt.len + 1;
  let front = rt.ring.(rt.head) in
  if rt.len > k then begin
    rt.head <- (rt.head + 1) mod cap;
    rt.len <- rt.len - 1
  end;
  front

let hold_last rt v = if Cell.kind rt.last = Cell.Absent then v else rt.last

(* Numeric targets are offset (an int becomes a float); others pass
   through unperturbed. *)
let perturb fr s v f =
  match Cell.kind v with
  | Cell.Float ->
      Cell.set_float v (Cell.float v +. f);
      Frame.store fr s v
  | Cell.Int ->
      Cell.set_float v (float_of_int (Cell.int v) +. f);
      Frame.store fr s v
  | _ -> ()

(** [apply rt ~dt fr] — interpose one fault on the freshly computed
    snapshot, the frame's next buffer. A target absent from the world or
    from the snapshot is a no-op, so a plan written for the vehicle world
    is harmless on a mini-world that lacks the signal. *)
let apply rt ~dt fr =
  match rt.target with
  | None -> ()
  | Some s ->
      let v = rt.cur in
      Frame.load fr s v;
      if Cell.kind v <> Cell.Absent then
        if not (active rt.fault (Frame.now fr)) then begin
          (match rt.fault.model with Delay k -> ignore (delayed rt k v) | _ -> ());
          Cell.blit ~src:v ~dst:rt.last;
          Float.Array.set rt.acc drift 0.
        end
        else
          match rt.fault.model with
          | Stuck_at _ -> Frame.store fr s rt.stuck
          | Dropout_hold -> Frame.store fr s (hold_last rt v)
          | Dropout_missing -> (
              match Cell.kind v with
              | Cell.Float | Cell.Int ->
                  Cell.set_float v Float.nan;
                  Frame.store fr s v
              | _ -> Frame.store fr s (hold_last rt v))
          | Delay k -> Frame.store fr s (delayed rt k v)
          | Noise sigma -> perturb fr s v (sigma *. Prng.gaussian rt.gen)
          | Drift rate ->
              Float.Array.set rt.acc drift (Float.Array.get rt.acc drift +. (rate *. dt));
              perturb fr s v (Float.Array.get rt.acc drift)
          | Spike (mag, rate) -> if Prng.float rt.gen < rate *. dt then perturb fr s v mag
          | Intermittent period ->
              let left = Float.Array.get rt.acc gate_left -. dt in
              Float.Array.set rt.acc gate_left left;
              if left <= 0. then begin
                rt.gate_passing <- not rt.gate_passing;
                (* exponentially distributed gate duration, mean [period] *)
                Float.Array.set rt.acc gate_left
                  (-.period *. Float.log (Float.max (1. -. Prng.float rt.gen) 0x1p-53))
              end;
              if rt.gate_passing then Cell.blit ~src:v ~dst:rt.last
              else Frame.store fr s (hold_last rt v)
