(** Rear Collision Avoidance (RCA): stops the vehicle before an object
    behind it when reversing (§5.2.1).

    Seeded defect (Fig. 5.12, §5.4.7): the engage condition tests the wrong
    gear — it requires drive instead of reverse, so RCA never engages and
    the vehicle backs into the stopped object with no goal violation at all:
    the hazard corresponds to a *missing* goal, the first emergence problem
    of §3.1 that monitoring cannot detect. *)

open Tl
open Signals
module F = Sim.Frame

(* Float reads and writes of the frame, defined here so that they inline
   (see [Sim.Frame.floats]). *)
let[@inline] float fr s = Float.Array.unsafe_get (F.floats fr s) (s :> int)
let[@inline] set_float fr s x = Float.Array.unsafe_set (F.set_floats fr s) (s :> int) x

let engage_ttc = 2.5
let brake_request = 6.0
(* Braking while reversing is a positive acceleration. *)

let component (defects : Defects.t) =
  Sim.Component.make ~name:"RCA"
    ~outputs:
      [
        (active "RCA", Value.Bool false);
        (accel_req "RCA", Value.Float 0.);
        (req_accel "RCA", Value.Bool false);
        (steer_req "RCA", Value.Float 0.);
        (req_steer "RCA", Value.Bool false);
      ]
    (fun b ->
      let enabled_s = F.Bind.bool b (enabled "RCA")
      and detected_s = F.Bind.bool b rear_object_detected
      and range_s = F.Bind.float b rear_range
      and speed_s = F.Bind.float b host_speed
      and gear_s = F.Bind.sym b gear
      and active_s = F.Bind.bool b (active "RCA")
      and accel_req_s = F.Bind.float b (accel_req "RCA")
      and req_accel_s = F.Bind.bool b (req_accel "RCA")
      and steer_req_s = F.Bind.float b (steer_req "RCA")
      and req_steer_s = F.Bind.bool b (req_steer "RCA") in
      let drive = F.Bind.symbol b "D" and reverse = F.Bind.symbol b "R" in
      fun fr ->
        let enabled = F.bool fr enabled_s in
        let detected = F.bool fr detected_s in
        let range = float fr range_s in
        let v = float fr speed_s in
        let gear_now = F.sym fr gear_s in
        let gear_ok =
          if defects.Defects.rca_never_engages then gear_now = drive (* wrong gear *)
          else gear_now = reverse
        in
        let closing = -.v in
        let ttc = if closing > 0.05 then range /. closing else Float.infinity in
        let engaged = enabled && gear_ok && detected && ttc < engage_ttc in
        F.set_bool fr active_s engaged;
        set_float fr accel_req_s (if engaged then brake_request else 0.);
        F.set_bool fr req_accel_s engaged;
        set_float fr steer_req_s 0.;
        F.set_bool fr req_steer_s false)
