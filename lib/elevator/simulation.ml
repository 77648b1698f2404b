(** A runnable simulation of the distributed elevator, with the Table 4.4
    subgoals implemented as command guards in the controllers and the
    Ch. 4 goals monitored over the resulting trace.

    Variables follow [Goals]' conventions; physical quantities:
    - ["door_position"] ∈ [0, 1], 1 = fully closed;
    - ["elevator_position"] metres above floor 1 (= cab top [etp]);
    - ["drive_speed"] m/s (positive = up). *)

open Tl
module F = Sim.Frame

let dt = 0.01
let floor_height = 4.0
let floors = 3
let floor_pos f = float_of_int (f - 1) *. floor_height
let dwell_time = 3.0
let door_rate = 0.5 (* fraction of travel per second *)
let drive_accel = 1.0
let drive_speed_max = 1.0

let nearest_floor pos =
  let f = 1 + int_of_float (Float.round (pos /. floor_height)) in
  max 1 (min floors f)

let at_floor pos f = Float.abs (pos -. floor_pos f) < 0.02

(* ------------------------------------------------------------------ *)
(* Physical components                                                  *)

let door_motor () =
  Sim.Component.make ~name:"DoorMotor"
    ~outputs:[ ("door_position", Value.Float 0.) ]
    (fun b ->
      let dt = F.Bind.dt b in
      let door = F.Bind.float b "door_position"
      and blocking = F.Bind.bool b "passenger_blocking"
      and dmc = F.Bind.sym b "dmc" in
      let close = F.Bind.symbol b "CLOSE" in
      fun fr ->
        let p = F.float fr door in
        let blocked = F.bool fr blocking in
        let cmd = F.sym fr dmc in
        let p' =
          if cmd = close && not blocked then Float.min 1. (p +. (door_rate *. dt))
          else if cmd = close then p (* an obstruction physically prevents closing *)
          else Float.max 0. (p -. (door_rate *. dt))
        in
        F.set_float fr door p')

let drive ~target_of () =
  Sim.Component.make ~name:"Drive"
    ~outputs:
      [ ("drive_speed", Value.Float 0.); ("elevator_position", Value.Float 0.) ]
    (fun b ->
      let dt = F.Bind.dt b in
      let speed = F.Bind.float b "drive_speed"
      and position = F.Bind.float b "elevator_position"
      and drc = F.Bind.sym b "drc"
      and eb_applied = F.Bind.bool b "eb_applied" in
      let stop = F.Bind.symbol b "STOP" in
      let target_of = target_of b in
      fun fr ->
        let v = F.float fr speed in
        let pos = F.float fr position in
        let cmd = F.sym fr drc in
        let eb = F.bool fr eb_applied in
        let target = target_of fr in
        let want =
          (* approach profile: cap speed so the cab can stop at the target
             with the available deceleration (v = sqrt(2·a·d)) *)
          let dist = Float.abs (target -. pos) in
          let cap = Float.min drive_speed_max (Float.sqrt (2. *. drive_accel *. dist)) in
          if eb || cmd = stop then 0.
          else if target > pos +. 0.01 then cap
          else if target < pos -. 0.01 then -.cap
          else 0.
        in
        let accel = if eb then 4. *. drive_accel else drive_accel in
        let dv = accel *. dt in
        let v' =
          if Float.abs (want -. v) <= dv then want
          else v +. Float.copy_sign dv (want -. v)
        in
        F.set_float fr speed v';
        F.set_float fr position (pos +. (v' *. dt)))

(** Sensors derive the sensed variables of the goal formulas from physical
    quantities (the sensor stage of Fig. 4.4). *)
let sensors () =
  Sim.Component.make ~name:"Sensors"
    ~outputs:
      [
        ("dc", Value.Bool false);
        ("db", Value.Bool false);
        ("es_stopped", Value.Bool true);
        ("drs_stopped", Value.Bool true);
        ("etp", Value.Float 0.);
        ("ew", Value.Float 0.);
      ]
    (fun b ->
      let door = F.Bind.float b "door_position"
      and speed = F.Bind.float b "drive_speed"
      and position = F.Bind.float b "elevator_position"
      and blocking = F.Bind.bool b "passenger_blocking"
      and load = F.Bind.float b "passenger_load"
      and dc = F.Bind.bool b "dc"
      and db = F.Bind.bool b "db"
      and es_stopped = F.Bind.bool b "es_stopped"
      and drs_stopped = F.Bind.bool b "drs_stopped"
      and etp = F.Bind.float b "etp"
      and ew = F.Bind.float b "ew" in
      fun fr ->
        let doorp = F.float fr door in
        let speed = F.float fr speed in
        let pos = F.float fr position in
        let blocking = F.bool fr blocking in
        let load = F.float fr load in
        F.set_bool fr dc (doorp >= 0.999);
        F.set_bool fr db (blocking && doorp < 0.999);
        F.set_bool fr es_stopped (Float.abs speed < 1e-3);
        F.set_bool fr drs_stopped (Float.abs speed < 1e-3);
        F.set_float fr etp pos;
        F.set_float fr ew load)

(* ------------------------------------------------------------------ *)
(* Software agents                                                      *)

(** The dispatch controller serves latched hall and car calls
    (Fig. 4.5's DispatchController): it keeps the current destination until
    the cab has arrived and opened its doors there (publishing
    ["served_floor"] so the button controllers clear the call), then moves
    to the nearest outstanding call. *)
let dispatch_controller () =
  Sim.Component.make ~name:"DispatchController"
    ~outputs:[ ("dispatch_request", Value.Int 1); ("served_floor", Value.Int 0) ]
    (fun b ->
      let position = F.Bind.float b "elevator_position"
      and door = F.Bind.float b "door_position"
      and es_stopped = F.Bind.bool b "es_stopped"
      and request = F.Bind.int b "dispatch_request"
      and served_floor = F.Bind.int b "served_floor" in
      let calls = Buttons.bind_calls ~floors b in
      fun fr ->
        let pos = F.float fr position in
        let door_open = F.float fr door < 0.5 in
        let stopped = F.bool fr es_stopped in
        let target = F.int_or fr request 1 in
        let serving_now = at_floor pos target && stopped && door_open in
        let served = if serving_now then target else 0 in
        let target' =
          if serving_now then target
          else
            match Buttons.outstanding ~floors calls fr ~from:(nearest_floor pos) with
            | [] -> target
            | f :: _ ->
                (* keep the current destination until served, unless no
                   call remains for it *)
                let target_called =
                  List.mem target (Buttons.outstanding ~floors calls fr ~from:target)
                in
                if target_called && not (at_floor pos target) then target else f
        in
        F.set_int fr request target';
        F.set_int fr served_floor served)

let door_controller () =
  Sim.Component.make ~name:"DoorController"
    ~outputs:[ ("dmc", Value.Sym "OPEN") ]
    (fun b ->
      let dt = F.Bind.dt b in
      let es_stopped = F.Bind.bool b "es_stopped"
      and drc = F.Bind.sym b "drc"
      and db = F.Bind.bool b "db"
      and position = F.Bind.float b "elevator_position"
      and request = F.Bind.int b "dispatch_request"
      and dmc = F.Bind.sym b "dmc"
      and dc = F.Bind.bool b "dc" in
      let go = F.Bind.symbol b "GO"
      and opened = F.Bind.symbol b "OPEN"
      and close = F.Bind.symbol b "CLOSE" in
      let dwell_left = Float.Array.make 1 0. in
      fun fr ->
        let moving = not (F.bool fr es_stopped) in
        let commanded_go = F.sym fr drc = go in
        let blocked = F.bool fr db in
        let pos = F.float fr position in
        let target = F.int_or fr request 1 in
        let cmd =
          if blocked then begin
            (* door-reversal goal (priority over the running example) *)
            Float.Array.set dwell_left 0 dwell_time;
            opened
          end
          else if moving || commanded_go then
            (* Table 4.4 subgoal: close when moving or commanded to move *)
            close
          else if at_floor pos target then begin
            if F.sym fr dmc = close && F.bool fr dc then
              (* arrived with door closed: begin the dwell *)
              Float.Array.set dwell_left 0 dwell_time
            else Float.Array.set dwell_left 0 (Float.Array.get dwell_left 0 -. dt);
            if Float.Array.get dwell_left 0 > 0. then opened else close
          end
          else close
        in
        F.set_sym fr dmc cmd)

let drive_controller () =
  Sim.Component.make ~name:"DriveController"
    ~outputs:[ ("drc", Value.Sym "STOP") ]
    (fun b ->
      let dc = F.Bind.bool b "dc"
      and dmc = F.Bind.sym b "dmc"
      and position = F.Bind.float b "elevator_position"
      and request = F.Bind.int b "dispatch_request"
      and ew = F.Bind.float b "ew"
      and drc = F.Bind.sym b "drc" in
      let opened = F.Bind.symbol b "OPEN"
      and stop = F.Bind.symbol b "STOP"
      and go = F.Bind.symbol b "GO" in
      fun fr ->
        let door_open = not (F.bool fr dc) in
        let door_commanded_open = F.sym fr dmc = opened in
        let pos = F.float fr position in
        let target = F.int_or fr request 1 in
        let near_limit =
          pos
          >= Icpa_tables.hoistway_upper_limit
             -. (Icpa_tables.max_stopping_distance +. Icpa_tables.safety_margin)
        in
        let overweight = F.float fr ew > 600. in
        F.set_sym fr drc
          (if door_open || door_commanded_open || near_limit || overweight then
             (* Table 4.4 subgoal + hoistway primary subgoal *)
             stop
           else if not (at_floor pos target) then go
           else stop))

let emergency_brake () =
  Sim.Component.make ~name:"EmergencyBrake"
    ~outputs:[ ("eb_applied", Value.Bool false) ]
    (fun b ->
      let etp = F.Bind.float b "etp" and eb_applied = F.Bind.bool b "eb_applied" in
      fun fr ->
        let pos = F.float fr etp in
        let applied = F.bool fr eb_applied in
        (* latches once applied: hoistway secondary subgoal *)
        let fire =
          applied
          || pos
             >= Icpa_tables.hoistway_upper_limit
                -. Icpa_tables.max_emergency_braking_distance
        in
        F.set_bool fr eb_applied fire)

(* ------------------------------------------------------------------ *)
(* Assembled system                                                     *)

type config = {
  passenger_events : Sim.Stimulus.event list;
  duration : float;
}

(** A momentary button press (held for 0.2 s). *)
let press_button t var =
  [ Sim.Stimulus.press t var; Sim.Stimulus.release (t +. 0.2) var ]

let default_config =
  {
    passenger_events =
      press_button 1.0 (Buttons.car_press 3)
      @ [
          Sim.Stimulus.set 20.0 "passenger_blocking" (Value.Bool true);
          Sim.Stimulus.set 21.5 "passenger_blocking" (Value.Bool false);
        ]
      @ press_button 26.0 (Buttons.hall_press 1 Buttons.Up)
      @ [ Sim.Stimulus.set 45.0 "passenger_load" (Value.Float 650.) ];
    duration = 55.0;
  }

let passenger events =
  Sim.Stimulus.component ~name:"Passenger"
    ~init:
      ([
         ("passenger_blocking", Value.Bool false);
         ("passenger_load", Value.Float 150.);
       ]
      @ Buttons.press_inputs ~floors)
    events

let world config =
  let target_of b =
    let request = F.Bind.value b "dispatch_request" in
    fun fr -> match F.value fr request with Value.Int f -> floor_pos f | _ -> 0.
  in
  Sim.World.make ~dt
    (passenger config.passenger_events
     :: Buttons.all ~floors
    @ [
        dispatch_controller ();
        door_controller ();
        drive_controller ();
        door_motor ();
        drive ~target_of ();
        sensors ();
        emergency_brake ();
      ])

(** Run the elevator and return the recorded trace. *)
let run ?(config = default_config) () = Sim.World.run ~until:config.duration (world config)

(** Monitor the Ch. 4 goals over a trace; returns (goal name, violations). *)
let monitor_goals trace =
  let goals =
    [
      Goals.door_closed_or_stopped;
      Goals.close_door_when_moving_or_moved;
      Goals.stop_elevator_when_door_open_or_opened;
      Goals.door_reversal;
      Goals.below_hoistway_limit ~hoistway_upper_limit:Icpa_tables.hoistway_upper_limit;
      Goals.drive_stopped_when_overweight ~weight_threshold:600.;
    ]
  in
  List.map
    (fun (g : Kaos.Goal.t) ->
      let ok = Rtmon.Incremental.run_trace g.formal trace in
      (g.name, Rtmon.Violation.of_series ~dt:(Trace.dt trace) ok))
    goals
