(** Tests for the simulation kernel: the one-state observation delay,
    conflict detection, stimuli, early termination, determinism. *)

open Tl

let b x = Value.Bool x
let f x = Value.Float x

(* A relay copies its input; chaining relays shows the one-state delay. *)
let relay ~name ~input ~output =
  Sim.Component.make ~name
    ~outputs:[ (output, b false) ]
    (fun bd ->
      let i = Sim.Frame.Bind.bool bd input and o = Sim.Frame.Bind.bool bd output in
      fun fr -> Sim.Frame.set_bool fr o (Sim.Frame.bool fr i))

let test_one_state_delay () =
  let source =
    Sim.Stimulus.component ~name:"src" ~init:[ ("in", b false) ]
      [ Sim.Stimulus.press 0.2 "in" ]
  in
  let w =
    Sim.World.make ~dt:0.1
      [ source; relay ~name:"r1" ~input:"in" ~output:"m"; relay ~name:"r2" ~input:"m" ~output:"out" ]
  in
  let tr = Sim.World.run ~until:0.6 w in
  let series v = List.map snd (Trace.bool_signal tr v) in
  Alcotest.(check (list bool)) "input" [ false; false; true; true; true; true; true ]
    (series "in");
  (* each relay adds exactly one state of delay *)
  Alcotest.(check (list bool)) "after one relay"
    [ false; false; false; true; true; true; true ] (series "m");
  Alcotest.(check (list bool)) "after two relays"
    [ false; false; false; false; true; true; true ] (series "out")

let test_conflict_detection () =
  let c1 = Sim.Component.constant ~name:"a" [ ("x", f 0.) ] in
  let c2 = Sim.Component.constant ~name:"b" [ ("x", f 1.) ] in
  Alcotest.check_raises "conflict"
    (Sim.World.Conflict "variable x controlled by both a and b") (fun () ->
      ignore (Sim.World.make ~dt:0.1 [ c1; c2 ]))

let test_conflict_opt_out () =
  (* The thesis relaxes strict single-controller (§4.2). *)
  let c1 = Sim.Component.constant ~name:"a" [ ("x", f 0.) ] in
  let c2 = Sim.Component.constant ~name:"b" [ ("x", f 1.) ] in
  ignore (Sim.World.make ~check_conflicts:false ~dt:0.1 [ c1; c2 ])

let test_stimulus_ordering () =
  (* Unsorted events apply in time order; later events override earlier. *)
  let s =
    Sim.Stimulus.component ~name:"s" ~init:[ ("v", f 0.) ]
      [ Sim.Stimulus.set 0.3 "v" (f 3.); Sim.Stimulus.set 0.1 "v" (f 1.) ]
  in
  let w = Sim.World.make ~dt:0.1 [ s ] in
  let tr = Sim.World.run ~until:0.5 w in
  Alcotest.(check (list (float 1e-9))) "profile" [ 0.; 1.; 1.; 3.; 3.; 3. ]
    (List.map snd (Trace.signal tr "v"))

let test_early_termination () =
  let counter =
    Sim.Component.make ~name:"c" ~outputs:[ ("n", Value.Int 0) ] (fun bd ->
        let n = Sim.Frame.Bind.int bd "n" in
        fun fr -> Sim.Frame.set_int fr n (Sim.Frame.int_or fr n 0 + 1))
  in
  let w = Sim.World.make ~dt:1.0 [ counter ] in
  let tr =
    Sim.World.run
      ~stop:(fun bd ->
        let n = Sim.Frame.Bind.int bd "n" in
        fun fr -> Sim.Frame.int_or fr n 0 >= 3)
      ~until:100. w
  in
  Alcotest.(check int) "stopped at n=3 (states 0..3)" 4 (Trace.length tr)

let test_determinism () =
  let run () =
    let tr = Elevator.Simulation.run () in
    Trace.signal tr "elevator_position"
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let test_unwritten_variables_persist () =
  let once =
    Sim.Component.make ~name:"once" ~outputs:[ ("y", f 7.) ] (fun bd ->
        let y = Sim.Frame.Bind.float bd "y" in
        let fired = ref false in
        fun fr ->
          if not !fired then begin
            fired := true;
            Sim.Frame.set_float fr y 9.
          end)
  in
  let w = Sim.World.make ~dt:1.0 [ once ] in
  let tr = Sim.World.run ~until:3. w in
  Alcotest.(check (list (float 1e-9))) "holds last written value" [ 7.; 9.; 9.; 9. ]
    (List.map snd (Trace.signal tr "y"))

let () =
  Alcotest.run "sim"
    [
      ( "kernel",
        [
          Alcotest.test_case "one-state observation delay" `Quick test_one_state_delay;
          Alcotest.test_case "conflict detection" `Quick test_conflict_detection;
          Alcotest.test_case "conflict opt-out" `Quick test_conflict_opt_out;
          Alcotest.test_case "stimulus ordering" `Quick test_stimulus_ordering;
          Alcotest.test_case "early termination" `Quick test_early_termination;
          Alcotest.test_case "unwritten variables persist" `Quick test_unwritten_variables_persist;
        ] );
      ("integration", [ Alcotest.test_case "elevator determinism" `Slow test_determinism ]);
    ]
