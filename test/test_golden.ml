(** Golden trace digests: the MD5 of [Marshal.to_string trace []] for the
    traces the thesis tables and the smoke campaign are computed from.

    A trace's marshalled bytes are a function of its cell values alone
    (the packed columns are canonical), so any change to the simulation
    kernel, the components, the fault interposers or the trace recorder
    that alters a single cell — or the canonical column layout — changes a
    digest here. The digests were taken with the name-keyed [Map] kernel
    and pin the slot kernel to its output bit for bit. *)

open Scenarios

let digest tr = Digest.to_hex (Digest.string (Marshal.to_string tr []))

let scenario_trace ~defects ?interpose (s : Defs.t) =
  Vehicle.System.run ~defects ?interpose ~duration:s.Defs.duration ~objects:s.Defs.objects
    ~events:s.Defs.events ()

let scenario_digests defects =
  List.map (fun (s : Defs.t) -> (s.Defs.number, digest (scenario_trace ~defects s))) Defs.all

let check_digests name expected actual =
  List.iter2
    (fun (n, e) (n', a) ->
      Alcotest.(check int) (Fmt.str "%s: scenario order" name) n n';
      Alcotest.(check string) (Fmt.str "%s: scenario %d" name n) e a)
    expected actual

let as_evaluated =
  [
    (1, "635c4011d34999aa1d78e4b47ef5ad57");
    (2, "7821e25ec550bd393a4904a09c62dbbb");
    (3, "d6420e48b3193907db4c1e3c27e21e2b");
    (4, "03d4ade70c6cafb6738158759bc0ae46");
    (5, "a3ca1041e588bd141252e45faba7803f");
    (6, "9cc2c9aca8627a3b7007f73289508e1d");
    (7, "a733b8fb4bc902129bc77811a9236d9d");
    (8, "f593815723e7a13f2e52502c68ca6e32");
    (9, "4868d2cb48470f61da423a13d8cb42f6");
    (10, "eaaebd0963fd3745f7c669fea46b8aff");
  ]

let repaired =
  [
    (1, "c4ff6e88f7e0f01ea9c2729c4b852474");
    (2, "d3531bf1dbc04e083c1f38ce0e3efd06");
    (3, "4b6c7e750723bd913ec194264d6dd828");
    (4, "e97470b8c821f011c53396cddac583e8");
    (5, "d41264c4a20c73a8331e5962b3f3b971");
    (6, "9f6158f60272b2aac6ed0aaff5debdbe");
    (7, "75612b95c7483f3406c15251b285bc7b");
    (8, "c9ee1af0da6c8979981bca43d42d8821");
    (9, "57965ad59541400ec4e2cafeafc558aa");
    (10, "1c5be413e48c5a755d17564b0a6ffa17");
  ]

(* Every injected trace of the seed-42 smoke grid, in grid order (fault
   major, scenario minor), as [Campaign.run] simulates them: repaired
   defects, one fault per plan, the grid's seed. *)
let smoke =
  [
    ( "stuck=3:ca_accel_req",
      [
        (1, "0705baddcf3f09f9c3bcb7bf524227cb");
        (3, "110df4f32f1d5d4edc21822efd7adb37");
        (7, "c17ba7a4645c006a17d901c7584664d6");
      ] );
    ( "stuck=false:object_detected",
      [
        (1, "11d97f7729165029f871b1368096a658");
        (3, "25aecc170a6ed6863828ba8d7ef2eeef");
        (7, "75612b95c7483f3406c15251b285bc7b");
      ] );
    ( "delay=150:accel_cmd",
      [
        (1, "633c6011feabcf2a7327a424591fa60e");
        (3, "525042f178d0877332176fd15864cf25");
        (7, "d03f111b3301077ca69a8a8d265a829d");
      ] );
    ( "nan:host_jerk@2..8",
      [
        (1, "98a2e5c9215dc8538ede4754f88bce94");
        (3, "13508caee073dc81f66fdff16968213c");
        (7, "30500de50355bc593a445664d7a07ead");
      ] );
  ]

let elevator =
  [
    ("default", "dedaa62440a218fdc916756bb0838d80");
    ("overweight while moving", "4fe30128f2df58c963a77a3f5fb08032");
  ]

let test_as_evaluated () =
  check_digests "as_evaluated" as_evaluated (scenario_digests Vehicle.Defects.as_evaluated)

let test_repaired () =
  check_digests "repaired" repaired (scenario_digests Vehicle.Defects.repaired)

let test_smoke_grid () =
  let g = Campaign.smoke () in
  List.iter2
    (fun fault (spec, expected) ->
      Alcotest.(check string) "fault order" spec (Inject.Fault.to_string fault);
      let plan = Inject.Plan.make ~seed:g.Campaign.seed [ fault ] in
      let actual =
        List.map
          (fun (s : Defs.t) ->
            let interpose = Inject.Plan.interposer ~dt:Vehicle.System.dt plan in
            (s.Defs.number, digest (scenario_trace ~defects:Vehicle.Defects.repaired ~interpose s)))
          g.Campaign.grid_scenarios
      in
      check_digests spec expected actual)
    g.Campaign.faults smoke

(* The two runs of [examples/elevator_demo.ml]. *)
let elevator_runs () =
  let overweight =
    {
      Elevator.Simulation.default_config with
      passenger_events =
        Elevator.Simulation.press_button 1.0 (Elevator.Buttons.car_press 3)
        @ [ Sim.Stimulus.set 4.0 "passenger_load" (Tl.Value.Float 650.) ];
    }
  in
  [
    ("default", Elevator.Simulation.run ());
    ("overweight while moving", Elevator.Simulation.run ~config:overweight ());
  ]

let test_elevator () =
  List.iter2
    (fun (name, e) (name', tr) ->
      Alcotest.(check string) "run order" name name';
      Alcotest.(check string) ("elevator " ^ name) e (digest tr))
    elevator (elevator_runs ())

let () =
  Alcotest.run "golden"
    [
      ( "trace digests",
        [
          Alcotest.test_case "scenarios as evaluated" `Slow test_as_evaluated;
          Alcotest.test_case "scenarios repaired" `Slow test_repaired;
          Alcotest.test_case "smoke grid injected" `Slow test_smoke_grid;
          Alcotest.test_case "elevator demo" `Quick test_elevator;
        ] );
    ]
