(** Lane Change Assist (LCA): performs a driver-requested lane change in
    conjunction with ACC, which provides the longitudinal control — LCA and
    ACC share acceleration requests (§5.3.2).

    Behaviour matching Fig. 5.10: engaged at t, active one state later, and
    the steering request begins 50 ms after activation. *)

open Tl
open Signals
module F = Sim.Frame

(* Float reads and writes of the frame, defined here so that they inline
   (see [Sim.Frame.floats]). *)
let[@inline] float fr s = Float.Array.unsafe_get (F.floats fr s) (s :> int)
let[@inline] set_float fr s x = Float.Array.unsafe_set (F.set_floats fr s) (s :> int) x

let steer_angle = 12.0 (* degrees *)
let maneuver_delay = 0.05
let maneuver_time = 2.5

let component (_defects : Defects.t) =
  Sim.Component.make ~name:"LCA"
    ~outputs:
      [
        (active "LCA", Value.Bool false);
        (accel_req "LCA", Value.Float 0.);
        (req_accel "LCA", Value.Bool false);
        (steer_req "LCA", Value.Float 0.);
        (req_steer "LCA", Value.Bool false);
      ]
    (fun b ->
      let dt = F.Bind.dt b in
      let engage_s = F.Bind.bool b (engage_request "LCA")
      and enabled_s = F.Bind.bool b (enabled "LCA")
      and acc_active_s = F.Bind.bool b (active "ACC")
      and acc_req_s = F.Bind.float b (accel_req "ACC")
      and active_s = F.Bind.bool b (active "LCA")
      and accel_req_s = F.Bind.float b (accel_req "LCA")
      and req_accel_s = F.Bind.bool b (req_accel "LCA")
      and steer_req_s = F.Bind.float b (steer_req "LCA")
      and req_steer_s = F.Bind.bool b (req_steer "LCA") in
      let active_state = ref false in
      let active_since = Float.Array.make 1 0. in
      let prev_engage = ref false in
      fun fr ->
        let now = float_of_int (F.tick fr) *. dt in
        let engage = F.bool fr engage_s in
        let enabled = F.bool fr enabled_s in
        let acc_on = F.bool fr acc_active_s in
        (if engage && (not !prev_engage) && enabled && acc_on then begin
           active_state := true;
           Float.Array.set active_since 0 now
         end);
        prev_engage := engage;
        if not (enabled && acc_on) then active_state := false;
        let elapsed = now -. Float.Array.get active_since 0 in
        let maneuvering =
          !active_state
          && elapsed >= maneuver_delay
          && elapsed < maneuver_delay +. maneuver_time
        in
        let steer =
          if maneuvering then
            (* half-sine lane-change profile *)
            steer_angle
            *. Float.sin (Float.pi *. (elapsed -. maneuver_delay) /. maneuver_time)
          else 0.
        in
        F.set_bool fr active_s !active_state;
        (* longitudinal control shared with ACC *)
        set_float fr accel_req_s (float fr acc_req_s);
        F.set_bool fr req_accel_s !active_state;
        set_float fr steer_req_s steer;
        F.set_bool fr req_steer_s maneuvering)
