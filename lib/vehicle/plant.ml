(** The physical substrate replacing CarSim®: lead/rear objects, host
    longitudinal dynamics, object sensors and derived jerk signals.

    Host acceleration tracks the arbiter's command through a second-order
    underdamped response (ωn = 30 rad/s, ζ = 0.30): powertrain/brake
    hydraulics plus suspension pitch rebound. The rebound is what makes a
    cancelled hard brake overshoot past +2 m/s² — the mechanism behind the
    thesis's vehicle-level goal-1/goal-2 violations that no command-level
    subgoal predicts (§5.4.1). *)

open Tl
open Signals
module F = Sim.Frame

(* Float reads and writes of the frame, defined here so that they inline
   (see [Sim.Frame.floats]). *)
let[@inline] float fr s = Float.Array.unsafe_get (F.floats fr s) (s :> int)
let[@inline] set_float fr s x = Float.Array.unsafe_set (F.set_floats fr s) (s :> int) x

type dynamics = { omega_n : float; zeta : float }

(** The default actuation response: ωn = 30 rad/s, ζ = 0.30 — underdamped
    enough that a cancelled hard brake rebounds past +2 m/s² (§5.4.1). *)
let default_dynamics = { omega_n = 30.0; zeta = 0.30 }

type objects = {
  lead_start : float;  (** initial position of the forward object, m *)
  lead_profile : float -> float;  (** lead speed as a function of time *)
  rear_start : float;  (** position of the object behind the host, m *)
}

let stationary_ahead gap = { lead_start = gap; lead_profile = (fun _ -> 0.); rear_start = -1000. }

let lead_vehicle objects =
  Sim.Component.make ~name:"LeadVehicle"
    ~outputs:
      [
        (lead_pos, Value.Float objects.lead_start);
        (lead_speed, Value.Float (objects.lead_profile 0.));
        (rear_pos, Value.Float objects.rear_start);
      ]
    (fun b ->
      let dt = F.Bind.dt b in
      let pos = F.Bind.float b lead_pos and speed = F.Bind.float b lead_speed in
      fun fr ->
        let p = float fr pos in
        let v = objects.lead_profile (float_of_int (F.tick fr) *. dt) in
        set_float fr pos (p +. (v *. dt));
        set_float fr speed v)

(** Host longitudinal dynamics, including the engage-creep defect
    (Fig. 5.15) and collision detection (the thesis's early-termination
    condition). *)
let host ?(dynamics = default_dynamics) (defects : Defects.t) =
  let { omega_n; zeta } = dynamics in
  Sim.Component.make ~name:"HostDynamics"
    ~outputs:
      [
        (host_pos, Value.Float 0.);
        (host_speed, Value.Float 0.);
        (host_accel, Value.Float 0.);
        (host_jerk, Value.Float 0.);
        (collision, Value.Bool false);
      ]
    (fun b ->
      let dt = F.Bind.dt b in
      let pos = F.Bind.float b host_pos
      and speed = F.Bind.float b host_speed
      and accel = F.Bind.float b host_accel
      and jerk = F.Bind.float b host_jerk
      and hit_s = F.Bind.bool b collision
      and cmd = F.Bind.float b accel_cmd
      and engage_acc = F.Bind.bool b (engage_request "ACC")
      and active_acc = F.Bind.bool b (active "ACC")
      and gear = F.Bind.sym b gear
      and source = F.Bind.sym b accel_source
      and lead_s = F.Bind.float b lead_pos
      and rear_s = F.Bind.float b rear_pos in
      let reverse = F.Bind.symbol b "R" and driver = F.Bind.symbol b "Driver" in
      (* [| jerk state (da/dt); creep time left |] *)
      let st = Float.Array.make 2 0. in
      fun fr ->
        let a = float fr accel in
        let v = float fr speed in
        let p = float fr pos in
        let u = float fr cmd in
        (* Defect: a failed ACC engage attempt at standstill leaks a creep
           torque into the powertrain for a few seconds. *)
        if
          defects.Defects.powertrain_creep_on_engage
          && F.bool fr engage_acc
          && Float.abs v < 0.05
          && not (F.bool fr active_acc)
        then Float.Array.set st 1 3.0;
        let creep =
          if Float.Array.get st 1 > 0. then begin
            Float.Array.set st 1 (Float.Array.get st 1 -. dt);
            0.8
          end
          else 0.
        in
        let u = u +. creep in
        (* Second-order response; the jerk state is da/dt. *)
        let s = Float.Array.get st 0 in
        let s' =
          s +. (((omega_n *. omega_n *. (u -. a)) -. (2. *. zeta *. omega_n *. s)) *. dt)
        in
        Float.Array.set st 0 s';
        let a' = a +. (s' *. dt) in
        (* Standing still with no drive torque (or with the brake applied
           against the direction of travel): friction holds the vehicle. *)
        let v' = v +. (a' *. dt) in
        (* The brake controller holds the vehicle at standstill against
           commands opposing the direction of travel — except that
           autonomous torque requests bypass the standstill hold (the
           plant-side face of the no-standstill-clamp defect): a subsystem
           commanding negative acceleration at standstill pushes the vehicle
           backward through zero, the Fig. 5.11 negative speed. *)
        let braking_demand = if F.sym fr gear = reverse then u >= -0.05 else u <= 0.05 in
        let hold_bypassed =
          defects.Defects.acc_no_standstill_clamp
          && F.sym fr source <> driver
          && Float.abs u >= 0.05
        in
        (* The capture band must exceed the largest per-step Δv (hard
           braking changes v by ~9 mm/s per millisecond state). *)
        let held =
          Float.abs v' < 0.02
          && (Float.abs u < 0.05 || (braking_demand && not hold_bypassed))
        in
        let v' = if held then 0. else v' in
        let p' = p +. (v' *. dt) in
        let lead = float fr lead_s in
        let rear = float fr rear_s in
        let hit = p' >= lead || p' <= rear in
        set_float fr pos p';
        set_float fr speed v';
        set_float fr accel a';
        set_float fr jerk s';
        F.set_bool fr hit_s hit)

(** Forward and rear object sensors. The forward radar has a 2 m minimum
    range; with the dropout defect, objects closer than that vanish — the
    Fig. 2.2 fault-tree branch "object detection misses object that is
    there". *)
let sensors (defects : Defects.t) =
  Sim.Component.make ~name:"ObjectSensors"
    ~outputs:
      [
        (object_detected, Value.Bool false);
        (object_range, Value.Float 1000.);
        (object_closing_speed, Value.Float 0.);
        (rear_object_detected, Value.Bool false);
        (rear_range, Value.Float 1000.);
      ]
    (fun b ->
      let lead_pos = F.Bind.float b lead_pos
      and host_pos = F.Bind.float b host_pos
      and host_speed = F.Bind.float b host_speed
      and lead_speed = F.Bind.float b lead_speed
      and rear_pos = F.Bind.float b rear_pos
      and detected_s = F.Bind.bool b object_detected
      and range_s = F.Bind.float b object_range
      and closing_s = F.Bind.float b object_closing_speed
      and rdetected_s = F.Bind.bool b rear_object_detected
      and rrange_s = F.Bind.float b rear_range in
      let min_range = if defects.Defects.radar_min_range_dropout then 2.0 else 0.0 in
      fun fr ->
        let range = float fr lead_pos -. float fr host_pos in
        let closing = float fr host_speed -. float fr lead_speed in
        let detected = range > min_range && range < 60. in
        let rrange = float fr host_pos -. float fr rear_pos in
        let rdetected = rrange > 0. && rrange < 30. in
        F.set_bool fr detected_s detected;
        set_float fr range_s range;
        set_float fr closing_s closing;
        F.set_bool fr rdetected_s rdetected;
        set_float fr rrange_s rrange)

(** Jerk derivation for the acceleration command and every feature request
    (needed by subgoals 2A/2B). The derivative is one state delayed, like
    every monitored value. *)
let jerk_derivation () =
  let tracked = (accel_cmd, accel_cmd_jerk) :: List.map (fun f -> (accel_req f, accel_req_jerk f)) features in
  Sim.Component.make ~name:"JerkDerivation"
    ~outputs:(List.map (fun (_, out) -> (out, Value.Float 0.)) tracked)
    (fun b ->
      let dt = F.Bind.dt b in
      let srcs = Array.of_list (List.map (fun (src, _) -> F.Bind.float b src) tracked) in
      let outs = Array.of_list (List.map (fun (_, out) -> F.Bind.float b out) tracked) in
      (* each source's value at the previous tick; the first tick derives 0 *)
      let last = Float.Array.make (Array.length srcs) 0. in
      let primed = ref false in
      fun fr ->
        for k = 0 to Array.length srcs - 1 do
          let v = float fr srcs.(k) in
          let prev = if !primed then Float.Array.get last k else v in
          Float.Array.set last k v;
          set_float fr outs.(k) ((v -. prev) /. dt)
        done;
        primed := true)
