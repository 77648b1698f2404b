(** The simulation kernel: synchronous, discrete-time, double-buffered.

    [make] resolves every signal name to a slot once and binds every
    component's step. At each tick the kernel copies the snapshot of tick
    [i−1] ([prev]) into the buffer of tick [i] ([next]), every component
    reads [prev] and writes [next], an optional interposer rewrites
    [next], and the two buffers swap. Variables not written keep their
    previous values. The recorded trace therefore has exactly the
    one-state observation delay assumed by the thesis's goal semantics. *)

open Tl

exception Conflict of string
(** Two components declare direct control of the same variable. The thesis
    relaxes KAOS's strict single-controller rule (§4.2), so conflicts are
    only rejected when [check_conflicts] is requested. *)

type t = {
  dt : float;
  binder : Frame.binder;
  initial : (Value.t Frame.slot * Value.t) list;  (* in declaration order *)
  steps : (Frame.t -> unit) array;
}

let runs = Obs.Metrics.counter "sim.runs"
let steps_counter = Obs.Metrics.counter "sim.steps"

let make ?(check_conflicts = true) ?(extra_init = []) ~dt components =
  if check_conflicts then begin
    let seen = Hashtbl.create 64 in
    List.iter
      (fun c ->
        List.iter
          (fun v ->
            match Hashtbl.find_opt seen v with
            | Some other ->
                raise
                  (Conflict
                     (Fmt.str "variable %s controlled by both %s and %s" v other
                        c.Component.name))
            | None -> Hashtbl.add seen v c.Component.name)
          (Component.controlled c))
      components
  end;
  let binder = Frame.binder ~dt in
  (* Later declarations of a variable override earlier ones. *)
  let initial =
    List.map
      (fun (v, x) -> (Frame.Bind.value binder v, x))
      (extra_init @ List.concat_map (fun c -> c.Component.outputs) components)
  in
  let steps = Array.of_list (List.map (fun c -> c.Component.bind binder) components) in
  { dt; binder; initial; steps }

(** [run world ~until ?stop ?transform ()] — simulate from time 0 to
    [until] seconds, recording every snapshot (the initial state is state 0
    at time 0). [stop] and [transform] are bound against the world's slots
    before the first tick. [stop] terminates the run early when it returns
    true on a freshly computed snapshot, read as the frame's previous
    snapshot (the thesis's runs end early on collision); the terminating
    snapshot is included.

    [transform] interposes on every freshly computed snapshot, in the
    frame's next buffer, before it is recorded or tested by [stop] — the
    hook behind runtime fault injection ({!Inject}): because the kernel is
    double buffered, an interposed value is exactly what every component
    and monitor observes on the following tick. The initial state is not
    transformed (no component has produced an output yet). *)
let run ?stop ?transform ~until world : Trace.t =
  let n_max = int_of_float (Float.ceil (until /. world.dt)) in
  let stop = Option.map (fun f -> f world.binder) stop in
  let transform = Option.map (fun f -> f world.binder) transform in
  let fr = Frame.create world.binder in
  List.iter (fun (s, v) -> Frame.set_value fr s v) world.initial;
  Frame.swap fr;
  let r = Frame.recorder fr ~hint:(n_max + 1) in
  Frame.record r fr;
  let steps = world.steps in
  let rec go i =
    if i > n_max then i - 1
    else begin
      Frame.begin_tick fr i;
      for k = 0 to Array.length steps - 1 do
        steps.(k) fr
      done;
      (match transform with None -> () | Some f -> f fr);
      Frame.swap fr;
      Frame.record r fr;
      match stop with Some f when f fr -> i | _ -> go (i + 1)
    end
  in
  let ticks = go 1 in
  Obs.Metrics.incr runs;
  Obs.Metrics.incr ~by:(ticks + 1) steps_counter;
  Frame.finish r
