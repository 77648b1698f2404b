(** Collision Avoidance (CA): detects objects in the forward path and stops
    the vehicle before a collision (§5.2.1).

    Seeded defects:
    - no engage hysteresis: braking raises the time-to-collision back above
      the engage threshold, so CA cancels and re-engages in a chatter
      (Fig. 5.2);
    - no hold-at-stop: CA releases the brake instead of holding the vehicle
      until the driver initiates motion (§5.4.1);
    the radar minimum-range dropout (in [Plant.sensors]) additionally makes
    CA release its final hard brake just before impact. *)

open Tl
open Signals
module F = Sim.Frame

(* Float reads and writes of the frame, defined here so that they inline
   (see [Sim.Frame.floats]). *)
let[@inline] float fr s = Float.Array.unsafe_get (F.floats fr s) (s :> int)
let[@inline] set_float fr s x = Float.Array.unsafe_set (F.set_floats fr s) (s :> int) x

let engage_ttc = 2.2
let brake_request = -9.0

let release_jerk_limit = 2.0 (* m/s^3: the repaired CA releases gradually *)

let component (defects : Defects.t) =
  Sim.Component.make ~name:"CA"
    ~outputs:
      [
        (active "CA", Value.Bool false);
        (accel_req "CA", Value.Float 0.);
        (req_accel "CA", Value.Bool false);
        (steer_req "CA", Value.Float 0.);
        (req_steer "CA", Value.Bool false);
      ]
    (fun b ->
      let dt = F.Bind.dt b in
      let enabled_s = F.Bind.bool b (enabled "CA")
      and detected_s = F.Bind.bool b object_detected
      and range_s = F.Bind.float b object_range
      and closing_s = F.Bind.float b object_closing_speed
      and speed_s = F.Bind.float b host_speed
      and gear_s = F.Bind.sym b gear
      and throttle_s = F.Bind.float b throttle_pedal
      and active_s = F.Bind.bool b (active "CA")
      and accel_req_s = F.Bind.float b (accel_req "CA")
      and req_accel_s = F.Bind.bool b (req_accel "CA")
      and steer_req_s = F.Bind.float b (steer_req "CA")
      and req_steer_s = F.Bind.bool b (req_steer "CA") in
      let drive = F.Bind.symbol b "D" in
      let engaged = ref false in
      let releasing = ref false in
      (* the previous request *)
      let prev_req = Float.Array.make 1 0. in
      fun fr ->
        let enabled = F.bool fr enabled_s in
        let detected = F.bool fr detected_s in
        let range = float fr range_s in
        let closing = float fr closing_s in
        let speed = float fr speed_s in
        let forward_gear = F.sym fr gear_s = drive in
        let ttc = if closing > 0.05 then range /. closing else Float.infinity in
        let should_engage = enabled && forward_gear && detected && ttc < engage_ttc in
        (if defects.Defects.ca_no_hysteresis then
           (* the engage condition is re-evaluated every state: braking
              pushes ttc back over the threshold and CA cancels *)
           engaged := should_engage
         else if should_engage then begin
           engaged := true;
           releasing := false
         end
         else if
           (* repaired behaviour: once engaged, brake until stopped, then
              hold until the driver applies the throttle AND the path is
              clear (an emergency hold is never released into an
              obstacle); the release then bleeds the request off
              jerk-limited while CA stays active *)
           !engaged
           && Float.abs speed < 0.01
           && float fr throttle_s > 0.05
           && not (detected && range < 4.0)
         then begin
           engaged := false;
           releasing := true
         end
         else if not (enabled && forward_gear) then begin
           engaged := false;
           releasing := !releasing && Float.Array.get prev_req 0 < -0.01
         end);
        if !releasing && Float.Array.get prev_req 0 >= -0.01 then releasing := false;
        let raw =
          if !engaged then
            if (not defects.Defects.ca_no_hysteresis) && Float.abs speed < 0.01 then -0.25
            else brake_request
          else 0.
        in
        let still_active = !engaged || !releasing in
        (* Brake application is immediate; the repaired CA releases the
           brake jerk-limited, while the defective CA drops the request
           instantly — the Fig. 5.2 step and the 2B.CA violations. *)
        let prev = Float.Array.get prev_req 0 in
        let request =
          if raw <= prev || defects.Defects.ca_no_hysteresis then raw
          else Float.min raw (prev +. (release_jerk_limit *. dt))
        in
        Float.Array.set prev_req 0 request;
        F.set_bool fr active_s still_active;
        set_float fr accel_req_s request;
        F.set_bool fr req_accel_s still_active;
        set_float fr steer_req_s 0.;
        F.set_bool fr req_steer_s false)
