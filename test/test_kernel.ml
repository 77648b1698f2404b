(** The slot kernel against its oracle, and its allocation ceiling.

    The differential properties run the same components under
    [Sim.World.run] and under the name-keyed [Map] reference runner
    ([Reference]): generated event scripts (including events on
    undeclared variables and values of another type) and fault plans
    drawing every [lib/inject] model, on a mini-world and on 2 s vehicle
    runs. Both runs must raise the same exception or produce traces that
    are structurally equal and marshal to the same bytes. *)

open Tl
module F = Sim.Frame

(* ------------------------------------------------------------------ *)
(* Outcomes                                                             *)

let outcome f = match f () with tr -> Ok tr | exception e -> Error e

let same a b =
  match (a, b) with
  | Ok x, Ok y -> compare x y = 0 && Marshal.to_string x [] = Marshal.to_string y []
  | Error e, Error e' -> e = e'
  | _ -> false

let describe = function
  | Ok tr -> Fmt.str "trace of %d states" (Trace.length tr)
  | Error e -> Printexc.to_string e

(* The first state where two traces differ, or where their bytes do. *)
let first_difference a b =
  let n = min (Trace.length a) (Trace.length b) in
  let rec go i =
    if i >= n then "the marshalled bytes"
    else
      let x = Trace.get a i and y = Trace.get b i in
      if State.compare x y <> 0 || State.vars x <> State.vars y then
        Fmt.str "state %d: %a vs %a" i State.pp x State.pp y
      else go (i + 1)
  in
  go 0

let agree slot reference =
  same slot reference
  ||
  match (slot, reference) with
  | Ok a, Ok b -> QCheck.Test.fail_reportf "traces differ at %s" (first_difference a b)
  | _ ->
      QCheck.Test.fail_reportf "slot kernel: %s; reference: %s" (describe slot)
        (describe reference)

let print_events events =
  String.concat "; "
    (List.map
       (fun (e : Sim.Stimulus.event) ->
         Fmt.str "%g %s=%a" e.Sim.Stimulus.at e.Sim.Stimulus.var Value.pp e.Sim.Stimulus.value)
       events)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)

let gen_float = QCheck.Gen.map (fun x -> Value.Float x) (QCheck.Gen.float_range (-10.) 10.)
let gen_int = QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.int_range (-3) 3)
let gen_bool = QCheck.Gen.map (fun b -> Value.Bool b) QCheck.Gen.bool
let gen_sym = QCheck.Gen.map (fun s -> Value.Sym s) (QCheck.Gen.oneofl [ "P"; "Q"; "R" ])

let gen_value =
  QCheck.Gen.oneof
    [ gen_float; QCheck.Gen.return (Value.Float Float.nan); gen_int; gen_bool; gen_sym ]

(* Mostly [typed], sometimes a value of any type. *)
let mostly typed = QCheck.Gen.frequency [ (5, typed); (1, gen_value) ]

let gen_model =
  let open QCheck.Gen in
  let open Inject.Fault in
  oneof
    [
      map (fun v -> Stuck_at v) (mostly gen_float);
      return Dropout_hold;
      return Dropout_missing;
      map (fun k -> Delay k) (int_range 0 6);
      map (fun s -> Noise s) (float_range 0. 2.);
      map (fun r -> Drift r) (float_range (-5.) 5.);
      map2 (fun m r -> Spike (m, r)) (float_range (-3.) 3.) (float_range 0. 300.);
      map (fun p -> Intermittent p) (float_range 0.005 0.2);
    ]

(* A plan of up to three faults on [targets], active in random windows
   within [horizon] seconds. *)
let gen_plan ~targets ~horizon =
  let open QCheck.Gen in
  let fault =
    map3
      (fun target model (from_t, len) ->
        Inject.Fault.make ~from_t
          ~until_t:(if len > horizon then infinity else from_t +. len)
          ~target model)
      (oneofl targets) gen_model
      (pair (float_bound_inclusive horizon) (float_bound_inclusive (1.5 *. horizon)))
  in
  map2 (fun seed faults -> Inject.Plan.make ~seed faults) (int_bound 1000)
    (list_size (int_range 0 3) fault)

(* ------------------------------------------------------------------ *)
(* Mini-world                                                           *)

let mini_dt = 0.01

(* Readers of every type: each raises as [State] would when its input
   holds a value of another type. *)
let relay =
  Sim.Component.make ~name:"relay"
    ~outputs:[ ("rb", Value.Bool false) ]
    (fun b ->
      let i = F.Bind.bool b "b" and o = F.Bind.bool b "rb" in
      fun fr -> F.set_bool fr o (F.bool fr i))

let integrator =
  Sim.Component.make ~name:"integrator"
    ~outputs:[ ("acc", Value.Float 0.) ]
    (fun b ->
      let a = F.Bind.float b "a" and acc = F.Bind.float b "acc" in
      fun fr -> F.set_float fr acc (F.float fr acc +. (F.float fr a *. mini_dt)))

let echo =
  Sim.Component.make ~name:"echo"
    ~outputs:[ ("rc", Value.Sym "P") ]
    (fun b ->
      let c = F.Bind.sym b "c" and rc = F.Bind.sym b "rc" in
      fun fr -> F.set_sym fr rc (F.sym fr c))

let counter =
  Sim.Component.make ~name:"counter"
    ~outputs:[ ("rd", Value.Int 0) ]
    (fun b ->
      let d = F.Bind.int b "d" and rd = F.Bind.int b "rd" in
      fun fr -> F.set_int fr rd (F.int_or fr d (-1) + 1))

(* reads a relay output: a second state of delay *)
let lagged =
  Sim.Component.make ~name:"lagged"
    ~outputs:[ ("rrb", Value.Bool false) ]
    (fun b ->
      let i = F.Bind.bool b "rb" and o = F.Bind.bool b "rrb" in
      fun fr -> F.set_bool fr o (F.bool fr i))

let mini_components events =
  [
    Sim.Stimulus.component ~name:"env"
      ~init:
        [
          ("a", Value.Float 1.);
          ("b", Value.Bool false);
          ("c", Value.Sym "P");
          ("d", Value.Int 0);
        ]
      events;
    relay;
    integrator;
    echo;
    counter;
    lagged;
  ]

(* Events on declared and undeclared variables, at times on a 5 ms grid
   so that several events often share a tick. *)
let gen_events =
  let open QCheck.Gen in
  let var_value =
    oneof
      [
        pair (return "a") (mostly gen_float);
        pair (return "b") (mostly gen_bool);
        pair (return "c") (mostly gen_sym);
        pair (return "d") (mostly gen_int);
        pair (oneofl [ "u"; "w" ]) gen_value;
      ]
  in
  list_size (int_range 0 12)
    (map2
       (fun k (var, v) -> Sim.Stimulus.set (float_of_int k *. 0.005) var v)
       (int_range 0 70) var_value)

let mini_targets = [ "a"; "b"; "c"; "d"; "u"; "acc"; "rb"; "rc"; "missing" ]
let extra_init = [ ("e", Value.Float 2.); ("a", Value.Float 0.5) ]

let prop_mini_world =
  QCheck.Test.make ~name:"slot kernel = Map reference on a mini-world" ~count:300
    (QCheck.make
       ~print:(fun (events, plan) ->
         Fmt.str "events [%s] plan %s" (print_events events) (Inject.Plan.to_string plan))
       QCheck.Gen.(pair gen_events (gen_plan ~targets:mini_targets ~horizon:0.3)))
    (fun (events, plan) ->
      let until = 0.3 in
      let slot =
        outcome (fun () ->
            Sim.World.run
              ~transform:(Inject.Plan.interposer ~dt:mini_dt plan)
              ~until
              (Sim.World.make ~extra_init ~dt:mini_dt (mini_components events)))
      in
      let reference =
        outcome (fun () ->
            Reference.run
              ~transform:(Reference.Fault.interposer ~dt:mini_dt plan)
              ~until
              (Reference.make ~extra_init ~dt:mini_dt (mini_components events)))
      in
      agree slot reference)

(* ------------------------------------------------------------------ *)
(* Vehicle runs                                                         *)

let vehicle_targets =
  let open Vehicle.Signals in
  [
    object_range;
    object_detected;
    object_closing_speed;
    host_speed;
    host_jerk;
    accel_cmd;
    accel_source;
    accel_req "CA";
    accel_req "ACC";
    active "ACC";
    gear;
    lead_speed;
    "no_such_signal";
  ]

let prop_vehicle =
  QCheck.Test.make ~name:"slot kernel = Map reference on 2 s vehicle runs" ~count:20
    (QCheck.make
       ~print:(fun (n, repaired, plan) ->
         Fmt.str "scenario %d repaired=%b plan %s" n repaired (Inject.Plan.to_string plan))
       QCheck.Gen.(
         triple (int_range 1 10) bool (gen_plan ~targets:vehicle_targets ~horizon:2.0)))
    (fun (n, repaired, plan) ->
      let s = Scenarios.Defs.get n in
      let defects =
        if repaired then Vehicle.Defects.repaired else Vehicle.Defects.as_evaluated
      in
      let components () =
        Vehicle.System.components ~defects ~objects:s.Scenarios.Defs.objects
          ~events:s.Scenarios.Defs.events ()
      in
      let dt = Vehicle.System.dt in
      let slot =
        outcome (fun () ->
            Sim.World.run ~stop:Vehicle.System.collided
              ~transform:(Inject.Plan.interposer ~dt plan)
              ~until:2.0
              (Sim.World.make ~dt (components ())))
      in
      let reference =
        outcome (fun () ->
            Reference.run
              ~stop:(fun st -> State.bool st Vehicle.Signals.collision)
              ~transform:(Reference.Fault.interposer ~dt plan)
              ~until:2.0
              (Reference.make ~dt (components ())))
      in
      agree slot reference)

(* ------------------------------------------------------------------ *)
(* Allocation ceiling                                                   *)

(* Scenario 1 for 2 s on this domain: every state the kernel computes
   reads, writes and records 72 slots, and may allocate no more than 64
   minor words per step. The name-keyed kernel allocated about 2 860. *)
let test_allocation_ceiling () =
  let s = Scenarios.Defs.get 1 in
  let world =
    Vehicle.System.world ~objects:s.Scenarios.Defs.objects ~events:s.Scenarios.Defs.events ()
  in
  let w0 = Gc.minor_words () in
  let tr = Sim.World.run ~stop:Vehicle.System.collided ~until:2.0 world in
  let words = Gc.minor_words () -. w0 in
  let steps = Trace.length tr in
  Alcotest.(check int) "2 s of states" 2001 steps;
  let per_step = words /. float_of_int steps in
  if per_step > 64. then
    Alcotest.failf "World.run allocated %.1f minor words per step (ceiling 64)" per_step

let test_counters () =
  let runs = Obs.Metrics.counter "sim.runs" and steps = Obs.Metrics.counter "sim.steps" in
  let r0 = Obs.Metrics.value runs and s0 = Obs.Metrics.value steps in
  let tr = Elevator.Simulation.run () in
  Alcotest.(check int) "one run" 1 (Obs.Metrics.value runs - r0);
  Alcotest.(check int) "one step per recorded state" (Trace.length tr)
    (Obs.Metrics.value steps - s0)

let () =
  Alcotest.run "kernel"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_mini_world;
          QCheck_alcotest.to_alcotest prop_vehicle;
        ] );
      ( "cost",
        [
          Alcotest.test_case "allocation ceiling" `Quick test_allocation_ceiling;
          Alcotest.test_case "sim counters" `Quick test_counters;
        ] );
    ]
