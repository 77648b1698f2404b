(** The reference kernel: the name-keyed [Map] fold that the slot kernel
    replaced, kept as the oracle of the differential tests.

    The state of a tick is a [Tl.State.t]. At every tick each component's
    bound step runs in a private frame whose previous buffer is loaded from
    the previous state and whose next buffer starts empty; the cells it
    writes are folded into the next state with [State.update], exactly as
    the original kernel folded each component's output list, so unwritten
    variables hold their value by [Map] semantics. Faults are applied by
    the original [State.t] interposer (copied below), rows are recorded
    by name with [Trace.Builder.add], and [stop] reads the state. Only
    the components' own step code is shared with the slot kernel. *)

open Tl
module F = Sim.Frame

type world = {
  dt : float;
  binder : F.binder;
  initial : State.t;
  steps : (F.t -> unit) list;
}

let make ?(extra_init = []) ~dt components =
  let binder = F.binder ~dt in
  let initial =
    State.of_list (extra_init @ List.concat_map (fun c -> c.Sim.Component.outputs) components)
  in
  List.iter (fun (v, _) -> ignore (F.Bind.value binder v)) (State.to_list initial);
  let steps = List.map (fun c -> c.Sim.Component.bind binder) components in
  { dt; binder; initial; steps }

(* Load [st] as the frame's previous snapshot and empty its next buffer
   for tick [i]. *)
let load w fr i st =
  F.clear_next fr;
  State.iter
    (fun name v ->
      match F.Bind.lookup w.binder name with Some s -> F.set_value fr s v | None -> ())
    st;
  F.swap fr;
  F.begin_tick fr i;
  F.clear_next fr

let written w fr =
  List.filter_map
    (fun (name, s) -> Option.map (fun v -> (name, v)) (F.peek fr s))
    (F.Bind.all w.binder)

(** [step w fr i prev] — the state at tick [i] from the previous state. *)
let step w fr i prev =
  load w fr i prev;
  List.iter (fun step -> step fr) w.steps;
  State.update (written w fr) prev

(* ------------------------------------------------------------------ *)
(* The [State.t] fault interposer                                       *)

module Fault = struct
  open Inject.Fault

  type runtime = {
    fault : t;
    gen : Inject.Prng.t;
    queue : Value.t Queue.t;
    mutable last : Value.t option;
    mutable drift : float;
    mutable gate_passing : bool;
    mutable gate_left : float;
  }

  let runtime ~seed fault =
    {
      fault;
      gen = Inject.Prng.create seed;
      queue = Queue.create ();
      last = None;
      drift = 0.;
      gate_passing = true;
      gate_left = 0.;
    }

  let perturb v f =
    match v with
    | Value.Float x -> Value.Float (x +. f)
    | Value.Int x -> Value.Float (float_of_int x +. f)
    | v -> v

  let hold_last rt v = match rt.last with Some l -> l | None -> v

  let apply rt ~dt ~now state =
    match State.find_opt rt.fault.target state with
    | None -> state
    | Some v -> (
        let delayed k =
          Queue.push v rt.queue;
          if Queue.length rt.queue > k then Queue.pop rt.queue else Queue.peek rt.queue
        in
        let faulted =
          if not (active rt.fault now) then begin
            (match rt.fault.model with Delay k -> ignore (delayed k) | _ -> ());
            rt.last <- Some v;
            rt.drift <- 0.;
            None
          end
          else
            match rt.fault.model with
            | Stuck_at x -> Some x
            | Dropout_hold -> Some (hold_last rt v)
            | Dropout_missing -> (
                match v with
                | Value.Float _ | Value.Int _ -> Some (Value.Float Float.nan)
                | _ -> Some (hold_last rt v))
            | Delay k -> Some (delayed k)
            | Noise sigma -> Some (perturb v (sigma *. Inject.Prng.gaussian rt.gen))
            | Drift rate ->
                rt.drift <- rt.drift +. (rate *. dt);
                Some (perturb v rt.drift)
            | Spike (mag, rate) ->
                if Inject.Prng.float rt.gen < rate *. dt then Some (perturb v mag) else None
            | Intermittent period ->
                rt.gate_left <- rt.gate_left -. dt;
                if rt.gate_left <= 0. then begin
                  rt.gate_passing <- not rt.gate_passing;
                  rt.gate_left <-
                    -.period *. Float.log (Float.max (1. -. Inject.Prng.float rt.gen) 0x1p-53)
                end;
                if rt.gate_passing then begin
                  rt.last <- Some v;
                  None
                end
                else Some (hold_last rt v)
        in
        match faulted with None -> state | Some v' -> State.set rt.fault.target v' state)

  (** The [State.t] counterpart of [Inject.Plan.interposer]. *)
  let interposer ~dt (plan : Inject.Plan.t) =
    let rts =
      List.mapi
        (fun i f -> runtime ~seed:(Inject.Prng.derive plan.Inject.Plan.seed i) f)
        plan.Inject.Plan.faults
    in
    fun ~now state -> List.fold_left (fun st rt -> apply rt ~dt ~now st) state rts
end

(** [run ?stop ?transform ~until w] — the original kernel's run loop. *)
let run ?stop ?transform ~until w : Trace.t =
  let n_max = int_of_float (Float.ceil (until /. w.dt)) in
  let fr = F.create w.binder in
  let buf = Trace.Builder.create ~hint:(n_max + 1) ~dt:w.dt () in
  Trace.Builder.add buf w.initial;
  let apply now next = match transform with None -> next | Some f -> f ~now next in
  let rec go i prev =
    if i > n_max then ()
    else
      let now = float_of_int i *. w.dt in
      let next = apply now (step w fr i prev) in
      Trace.Builder.add buf next;
      match stop with Some f when f next -> () | _ -> go (i + 1) next
  in
  go 1 w.initial;
  Trace.Builder.finish buf
