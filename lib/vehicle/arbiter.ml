(** The Arbiter: selects which subsystem (or the driver) controls vehicle
    acceleration and steering (§5.2.1). In the research vehicle this logic
    was distributed across processors with *separate* arbitration of
    acceleration and steering — the root of several defects the thesis
    uncovered (§5.3.2, §6.1.2):

    - steering arbitration priority is the *reverse* of acceleration
      priority, and the steering stage determines which request value is
      actually passed along as the acceleration command (Fig. 5.4);
    - 'selected' flags are latched past the actual source change, so
      transients are attributed to subsystems (§5.4.1);
    - when PA is the acceleration source the wrong slot is routed and the
      command differs from PA's request (Fig. 5.14);
    - LCA bypasses the selection debounce and gains control one state after
      activation (Fig. 5.10);
    - LCA and ACC can be flagged 'selected' simultaneously (Fig. 5.11).

    Selection timing (matching §5.4): a candidate feature is selected after
    a 50 ms debounce; pedal override deselects it after 50 ms and blocks
    re-selection while the pedals are applied; a previously overridden
    feature needs a 100 ms debounce to regain control after pedal release —
    the 0.101 s handoff of Fig. 5.9. *)

open Tl
open Signals
module F = Sim.Frame

(* Float reads and writes of the frame, defined here so that they inline
   (see [Sim.Frame.floats]). *)
let[@inline] float fr s = Float.Array.unsafe_get (F.floats fr s) (s :> int)
let[@inline] set_float fr s x = Float.Array.unsafe_set (F.set_floats fr s) (s :> int) x

let accel_priority = [ "CA"; "RCA"; "PA"; "LCA"; "ACC" ]

type timing = {
  select_debounce : float;  (** candidate persistence before selection *)
  reselect_debounce : float;  (** re-selection after a pedal override (Fig. 5.9) *)
  override_debounce : float;  (** pedal persistence before override *)
  latch_time : float;  (** 'selected'-flag hold past the source change *)
}

(** The timing the thesis's system exhibited (§5.4). *)
let default_timing =
  {
    select_debounce = 0.05;
    reselect_debounce = 0.1;
    override_debounce = 0.05;
    latch_time = 0.15;
  }

(* Features are numbered by their position in [Signals.features]; the
   driver is [driver]. *)
let driver = -1

let feature_index f =
  let rec go k = function
    | [] -> invalid_arg ("Arbiter: unknown feature " ^ f)
    | g :: _ when g = f -> k
    | _ :: rest -> go (k + 1) rest
  in
  go 0 features

let n_features = List.length features
let priority = Array.of_list (List.map feature_index accel_priority)
let priority_reversed = Array.of_list (List.rev_map feature_index accel_priority)
let lca = feature_index "LCA"
let acc = feature_index "ACC"
let pa = feature_index "PA"

type state = {
  mutable cur : int;  (** current acceleration source: a feature or [driver] *)
  mutable pend : int;  (** pending candidate, or [driver] for none *)
  times : floatarray;  (** [| pend_t; override_t; last_steer |] *)
  blocked : bool array;  (** overridden while pedals applied *)
  was_overridden : bool array;
  latched : bool array;  (** 'selected' latches *)
  latch_left : floatarray;  (** time left on each latch *)
}

let pend_t = 0
let override_t = 1
let last_steer = 2

let fresh () =
  {
    cur = driver;
    pend = driver;
    times = Float.Array.make 3 0.;
    blocked = Array.make n_features false;
    was_overridden = Array.make n_features false;
    latched = Array.make n_features false;
    latch_left = Float.Array.make n_features 0.;
  }

let[@inline] hard_stop_request ~v request =
  (* an emergency stop the driver may not override (§5.2.3) *)
  if v >= 0. then request < hard_brake else request > -.hard_brake

(* The slots of one feature's outputs, by feature number. *)
type feature_slots = {
  active_s : bool F.slot array;
  req_accel_s : bool F.slot array;
  accel_req_s : float F.slot array;
  req_steer_s : bool F.slot array;
  steer_req_s : float F.slot array;
}

let[@inline] requesting fs fr f =
  F.bool fr fs.active_s.(f) && F.bool fr fs.req_accel_s.(f)
let[@inline] steering fs fr f = F.bool fr fs.active_s.(f) && F.bool fr fs.req_steer_s.(f)

let add st k d = Float.Array.set st.times k (Float.Array.get st.times k +. d)

let component ?(timing = default_timing) (defects : Defects.t) =
  let { select_debounce; reselect_debounce; override_debounce; latch_time } = timing in
  Sim.Component.make ~name:"Arbiter"
    ~outputs:
      ([
         (accel_cmd, Value.Float 0.);
         (accel_source, Value.Sym "Driver");
         (va_source, Value.Sym "Driver");
         (steer_cmd, Value.Float 0.);
         (steer_source, Value.Sym "Driver");
         (vst_source, Value.Sym "Driver");
         (driver_selected, Value.Bool true);
       ]
      @ List.map (fun f -> (selected f, Value.Bool false)) features)
    (fun b ->
      let dt = F.Bind.dt b in
      let per mk slot = Array.of_list (List.map (fun f -> slot b (mk f)) features) in
      let fs =
        {
          active_s = per active F.Bind.bool;
          req_accel_s = per req_accel F.Bind.bool;
          accel_req_s = per accel_req F.Bind.float;
          req_steer_s = per req_steer F.Bind.bool;
          steer_req_s = per steer_req F.Bind.float;
        }
      in
      let selected_s = per selected F.Bind.bool in
      let speed_s = F.Bind.float b host_speed
      and throttle_s = F.Bind.float b throttle_pedal
      and brake_s = F.Bind.float b brake_pedal
      and gear_s = F.Bind.sym b gear
      and wheel_s = F.Bind.bool b steering_wheel_active
      and engage_acc_s = F.Bind.bool b (engage_request "ACC")
      and enabled_acc_s = F.Bind.bool b (enabled "ACC")
      and accel_cmd_s = F.Bind.float b accel_cmd
      and accel_source_s = F.Bind.sym b accel_source
      and va_source_s = F.Bind.sym b va_source
      and steer_cmd_s = F.Bind.float b steer_cmd
      and steer_source_s = F.Bind.sym b steer_source
      and vst_source_s = F.Bind.sym b vst_source
      and driver_selected_s = F.Bind.bool b driver_selected in
      let reverse = F.Bind.symbol b "R" in
      let driver_sym = F.Bind.symbol b "Driver" in
      let feature_syms = Array.of_list (List.map (F.Bind.symbol b) features) in
      let source_sym k = if k = driver then driver_sym else feature_syms.(k) in
      let st = fresh () in
      fun fr ->
        let v = float fr speed_s in
        let throttle = float fr throttle_s in
        let brake = float fr brake_s in
        let pedals = throttle > 0.05 || brake > 0.05 in
        if not pedals then Array.fill st.blocked 0 n_features false;
        (* --- acceleration arbitration: the first requesting feature in
           priority order (every feature's request flags are read) --- *)
        let top = ref driver in
        for k = 0 to Array.length priority - 1 do
          let f = priority.(k) in
          if requesting fs fr f && !top = driver then top := f
        done;
        let top = !top in
        (* override evaluation of the currently selected feature *)
        (if st.cur = driver then Float.Array.set st.times override_t 0.
         else
           let f = st.cur in
           if requesting fs fr f then begin
             if pedals && not (hard_stop_request ~v (float fr fs.accel_req_s.(f)))
             then begin
               add st override_t dt;
               if Float.Array.get st.times override_t >= override_debounce then begin
                 st.cur <- driver;
                 st.blocked.(f) <- true;
                 st.was_overridden.(f) <- true;
                 Float.Array.set st.times override_t 0.
               end
             end
             else Float.Array.set st.times override_t 0.
           end
           else begin
             (* the feature withdrew: fall back immediately *)
             st.cur <- driver;
             Float.Array.set st.times override_t 0.
           end);
        (* selection of a new source. The repaired arbiter refuses to
           select a feature while the pedals are applied unless it is
           demanding an emergency stop; the evaluated arbiter checks the
           pedals only after selection, via the override logic. An
           overridden feature stays blocked while the pedals are applied —
           but an emergency stop request is never blocked (§5.2.3). *)
        (if
           top <> driver
           && st.cur = driver
           && (not
                 (st.blocked.(top) && pedals
                 && not (hard_stop_request ~v (float fr fs.accel_req_s.(top)))))
           && (defects.Defects.arbiter_selects_under_pedals || (not pedals)
              || hard_stop_request ~v (float fr fs.accel_req_s.(top)))
         then begin
           (* defect-adjacent: LCA bypasses the debounce *)
           if top = lca then st.cur <- top
           else begin
             let threshold =
               if st.was_overridden.(top) then reselect_debounce else select_debounce
             in
             if st.pend = top then add st pend_t dt
             else begin
               st.pend <- top;
               Float.Array.set st.times pend_t dt
             end;
             if Float.Array.get st.times pend_t >= threshold then begin
               st.cur <- top;
               st.pend <- driver;
               Float.Array.set st.times pend_t 0.
             end
           end
         end
         else if top <> driver && st.cur <> driver && top <> st.cur then begin
           (* a higher-priority feature preempts after the debounce *)
           if st.pend = top then add st pend_t dt
           else begin
             st.pend <- top;
             Float.Array.set st.times pend_t dt
           end;
           if Float.Array.get st.times pend_t >= select_debounce then begin
             st.cur <- top;
             st.pend <- driver;
             Float.Array.set st.times pend_t 0.
           end
         end
         else begin
           st.pend <- driver;
           Float.Array.set st.times pend_t 0.
         end);
        (* driver demand *)
        let driver_demand =
          if brake > 0.05 then
            if v > 0.01 then -7. *. brake else if v < -0.01 then 7. *. brake else 0.
          else
            let dir = if F.sym fr gear_s = reverse then -1. else 1. in
            dir *. 2.5 *. throttle
        in
        let cmd =
          if st.cur = driver then driver_demand else float fr fs.accel_req_s.(st.cur)
        in
        (* --- steering arbitration (every feature's flags are read) --- *)
        let order =
          if defects.Defects.arbiter_steering_priority_reversed then priority_reversed
          else priority
        in
        let steer_top = ref driver in
        for k = 0 to Array.length order - 1 do
          let f = order.(k) in
          if steering fs fr f && !steer_top = driver then steer_top := f
        done;
        let wheel = F.bool fr wheel_s in
        let steer_winner = if wheel then driver else !steer_top in
        let s_cmd =
          if steer_winner = driver then Float.Array.get st.times last_steer
          else if steer_winner = lca && defects.Defects.lca_steering_ignored then
            Float.Array.get st.times last_steer
          else float fr fs.steer_req_s.(steer_winner)
        in
        let s_src = steer_winner in
        Float.Array.set st.times last_steer s_cmd;
        (* Defect: the steering stage determines which acceleration request
           value is passed along (§5.4.2). *)
        let cmd =
          if
            steer_winner <> driver
            && defects.Defects.arbiter_steering_priority_reversed
            && st.cur <> driver
          then float fr fs.accel_req_s.(steer_winner)
          else cmd
        in
        (* Defect: wrong slot routed when PA is the acceleration source. *)
        let cmd =
          if st.cur = pa && defects.Defects.pa_command_mismatch then
            float fr fs.steer_req_s.(pa)
          else cmd
        in
        (* --- selected flags, with the latch defect --- *)
        for f = 0 to n_features - 1 do
          let selected_now =
            st.cur = f || s_src = f
            || (defects.Defects.arbiter_dual_selected && f = acc && st.cur = lca)
            (* Defect: the HMI engage request drives the 'selected'
               indicator directly, even when the activation failed — the
               Fig. 5.15 phantom attribution. *)
            || defects.Defects.arbiter_dual_selected
               && f = acc
               && F.bool fr engage_acc_s
               && F.bool fr enabled_acc_s
               && not (F.bool fr fs.active_s.(acc))
          in
          if selected_now then begin
            st.latched.(f) <- true;
            Float.Array.set st.latch_left f latch_time
          end
          else if
            st.latched.(f)
            && Float.Array.get st.latch_left f -. dt > 0.
            && defects.Defects.arbiter_selected_latch
          then Float.Array.set st.latch_left f (Float.Array.get st.latch_left f -. dt)
          else st.latched.(f) <- false
        done;
        (* The flag-derived attribution (the only attribution visible
           outside the arbiter) follows the latched 'selected' flags: during
           the latch window a transient is still attributed to the
           subsystem (§5.4.1). *)
        let flag_attribution =
          if st.cur <> driver then st.cur
          else begin
            let first = ref driver in
            for k = Array.length priority - 1 downto 0 do
              if st.latched.(priority.(k)) then first := priority.(k)
            done;
            if !first <> driver && defects.Defects.arbiter_selected_latch then !first
            else driver
          end
        in
        set_float fr accel_cmd_s cmd;
        F.set_sym fr accel_source_s (source_sym st.cur);
        F.set_sym fr va_source_s (source_sym flag_attribution);
        set_float fr steer_cmd_s s_cmd;
        F.set_sym fr steer_source_s (source_sym s_src);
        F.set_sym fr vst_source_s (source_sym s_src);
        F.set_bool fr driver_selected_s (st.cur = driver);
        for f = 0 to n_features - 1 do
          F.set_bool fr selected_s.(f) st.latched.(f)
        done)
