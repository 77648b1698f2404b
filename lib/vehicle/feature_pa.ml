(** Park Assist (PA): finds a parking space and parks the vehicle on driver
    request (§5.2.1).

    Seeded defect (Fig. 5.3): while *not even enabled*, PA emits the ghost
    acceleration-request profile the thesis observed — +2 m/s² from the
    start of simulation until 2.186 s, 0 until 9.33 s, −2 m/s² until
    9.624 s, then 0. PA never signals active, so the Arbiter's redundancy
    masks the requests; the subgoal monitors (2B, 4B) still flag them —
    false positives that reveal a real subsystem defect (§5.4.1).

    When genuinely engaged, PA aligns (steering + zero acceleration) while
    the vehicle moves and creeps (+0.3 m/s²) from standstill. *)

open Tl
open Signals
module F = Sim.Frame

(* Float reads and writes of the frame, defined here so that they inline
   (see [Sim.Frame.floats]). *)
let[@inline] float fr s = Float.Array.unsafe_get (F.floats fr s) (s :> int)
let[@inline] set_float fr s x = Float.Array.unsafe_set (F.set_floats fr s) (s :> int) x

let[@inline] ghost_profile now =
  if now < 2.186 then 2.0 else if now >= 9.33 && now < 9.624 then -2.0 else 0.0

let request_jerk_limit = 2.0 (* m/s^3: engaged-mode requests are ramped *)

let component (defects : Defects.t) =
  Sim.Component.make ~name:"PA"
    ~outputs:
      [
        (active "PA", Value.Bool false);
        (accel_req "PA", Value.Float 0.);
        (req_accel "PA", Value.Bool false);
        (steer_req "PA", Value.Float 0.);
        (req_steer "PA", Value.Bool false);
      ]
    (fun b ->
      let dt = F.Bind.dt b in
      let enabled_s = F.Bind.bool b (enabled "PA")
      and engage_s = F.Bind.bool b (engage_request "PA")
      and speed_s = F.Bind.float b host_speed
      and active_s = F.Bind.bool b (active "PA")
      and accel_req_s = F.Bind.float b (accel_req "PA")
      and req_accel_s = F.Bind.bool b (req_accel "PA")
      and steer_req_s = F.Bind.float b (steer_req "PA")
      and req_steer_s = F.Bind.bool b (req_steer "PA") in
      let active_state = ref false in
      let prev_engage = ref false in
      let prev_req = Float.Array.make 1 0. in
      fun fr ->
        let enabled = F.bool fr enabled_s in
        let engage = F.bool fr engage_s in
        if engage && (not !prev_engage) && enabled then active_state := true;
        prev_engage := engage;
        if not enabled then active_state := false;
        let v = float fr speed_s in
        if !active_state then begin
          (* align phase (searching for a space: steering authority is
             claimed but the request is still neutral, and speed is held)
             while moving, creep phase from standstill *)
          let moving = Float.abs v > 0.3 in
          let target = if moving then 0. else 0.3 in
          let step = request_jerk_limit *. dt in
          let prev = Float.Array.get prev_req 0 in
          let r = prev +. Float.max (-.step) (Float.min step (target -. prev)) in
          Float.Array.set prev_req 0 r;
          F.set_bool fr active_s true;
          set_float fr accel_req_s r;
          F.set_bool fr req_accel_s true;
          set_float fr steer_req_s 0.;
          F.set_bool fr req_steer_s moving
        end
        else begin
          let g =
            if defects.Defects.pa_ghost_requests then
              ghost_profile (float_of_int (F.tick fr) *. dt)
            else 0.
          in
          Float.Array.set prev_req 0 g;
          F.set_bool fr active_s false;
          set_float fr accel_req_s g;
          F.set_bool fr req_accel_s false;
          set_float fr steer_req_s 0.;
          F.set_bool fr req_steer_s false
        end)
