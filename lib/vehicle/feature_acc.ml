(** Adaptive Cruise Control (ACC): controls to a driver-set speed, or to a
    following distance behind a slower lead vehicle (§5.2.1). Also performs
    the longitudinal control for LCA.

    The request is jerk-limited to 2.0 m/s³ (Fig. 5.7), below the 2.5 m/s³
    subgoal threshold, and capped at +1.8 m/s² — the safety-envelope
    restriction of Eq. 3.48.

    Seeded defects:
    - controls toward an uninitialized 0 m/s set speed whenever merely
      enabled (Fig. 5.6);
    - no gear check on engagement (Fig. 5.13);
    - integrator windup during driver override (the Fig. 5.8 hunting);
    - no standstill clamp: gap control can command the vehicle through zero
      speed (Fig. 5.11). *)

open Tl
open Signals
module F = Sim.Frame

(* Float reads and writes of the frame, defined here so that they inline
   (see [Sim.Frame.floats]). *)
let[@inline] float fr s = Float.Array.unsafe_get (F.floats fr s) (s :> int)
let[@inline] set_float fr s x = Float.Array.unsafe_set (F.set_floats fr s) (s :> int) x

let kp = 0.8
let ki = 0.3
let request_max = 1.8
let request_min = -3.0
let jerk_rate = 2.0
let min_engage_speed = 0.3
let desired_gap = 6.0

(* Controller state: [| integrator; previous request |]. *)
let integ = 0
let prev_req = 1

(* One control step toward [set_speed]: gap-limited target, PI law with
   the windup defect, clamps and the jerk limiter. *)
let[@inline] control (defects : Defects.t) st fr ~source ~acc ~lca ~dt ~v ~detected ~range
    ~lead_v set_speed =
  let target =
    if detected && range < Float.max 10. (2.0 *. Float.abs v *. 1.5) then
      Float.min set_speed (lead_v +. (0.25 *. (range -. desired_gap)))
    else set_speed
  in
  let target =
    if (not defects.Defects.acc_no_standstill_clamp) && target < 0. then 0. else target
  in
  let err = target -. v in
  let selected = F.sym fr source = acc || F.sym fr source = lca in
  if selected || defects.Defects.acc_integrator_windup then
    Float.Array.set st integ (Float.Array.get st integ +. (err *. dt));
  let raw = (kp *. err) +. (ki *. Float.Array.get st integ) in
  let raw = Float.max request_min (Float.min request_max raw) in
  let raw =
    if (not defects.Defects.acc_no_standstill_clamp) && v <= 0.01 then Float.max 0. raw
    else raw
  in
  (* jerk limiter *)
  let step = jerk_rate *. dt in
  let prev = Float.Array.get st prev_req in
  let r = prev +. Float.max (-.step) (Float.min step (raw -. prev)) in
  Float.Array.set st prev_req r;
  r

let component (defects : Defects.t) =
  Sim.Component.make ~name:"ACC"
    ~outputs:
      [
        (active "ACC", Value.Bool false);
        (accel_req "ACC", Value.Float 0.);
        (req_accel "ACC", Value.Bool false);
        (steer_req "ACC", Value.Float 0.);
        (req_steer "ACC", Value.Bool false);
      ]
    (fun b ->
      let dt = F.Bind.dt b in
      let enabled_s = F.Bind.bool b (enabled "ACC")
      and engage_s = F.Bind.bool b (engage_request "ACC")
      and speed_s = F.Bind.float b host_speed
      and gear_s = F.Bind.sym b gear
      and set_speed_s = F.Bind.float b acc_set_speed
      and detected_s = F.Bind.bool b object_detected
      and range_s = F.Bind.float b object_range
      and lead_speed_s = F.Bind.float b lead_speed
      and source = F.Bind.sym b accel_source
      and active_s = F.Bind.bool b (active "ACC")
      and accel_req_s = F.Bind.float b (accel_req "ACC")
      and req_accel_s = F.Bind.bool b (req_accel "ACC")
      and steer_req_s = F.Bind.float b (steer_req "ACC")
      and req_steer_s = F.Bind.bool b (req_steer "ACC") in
      let drive = F.Bind.symbol b "D" in
      let acc = F.Bind.symbol b "ACC" and lca = F.Bind.symbol b "LCA" in
      let active_state = ref false in
      let prev_engage = ref false in
      let st = Float.Array.make 2 0. in
      fun fr ->
        let enabled = F.bool fr enabled_s in
        let engage = F.bool fr engage_s in
        let v = float fr speed_s in
        let in_drive = F.sym fr gear_s = drive in
        (* Engagement on the rising edge of the HMI request. *)
        (if engage && not !prev_engage then
           let gear_ok = defects.Defects.acc_no_gear_check || in_drive in
           if enabled && gear_ok && Float.abs v >= min_engage_speed then begin
             active_state := true;
             Float.Array.set st integ 0.
           end);
        prev_engage := engage;
        if not enabled then active_state := false;
        let set = float fr set_speed_s in
        let detected = F.bool fr detected_s in
        let range = float fr range_s in
        let lead_v = float fr lead_speed_s in
        let request =
          if !active_state then
            control defects st fr ~source ~acc ~lca ~dt ~v ~detected ~range ~lead_v set
          else if enabled && defects.Defects.acc_controls_when_disengaged then
            (* uninitialized set speed: controls the vehicle toward 0 m/s *)
            control defects st fr ~source ~acc ~lca ~dt ~v ~detected ~range ~lead_v 0.
          else begin
            Float.Array.set st prev_req 0.;
            Float.Array.set st integ 0.;
            0.
          end
        in
        F.set_bool fr active_s !active_state;
        set_float fr accel_req_s request;
        F.set_bool fr req_accel_s !active_state;
        set_float fr steer_req_s 0.;
        F.set_bool fr req_steer_s false)
