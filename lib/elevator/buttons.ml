(** Hall and car button controllers (Fig. 4.5): one software agent per
    button. A passenger press latches the corresponding call; the dispatch
    controller clears a call when it has been served (doors opened at the
    requested floor).

    Variables:
    - ["hall_button_press_F_D"], ["car_button_press_F"] — passenger inputs
      (momentary, driven by the scenario script);
    - ["hall_call_F_D"], ["car_call_F"] — latched calls on the network
      (direct control of the button controllers);
    - ["served_floor"] — the dispatch controller's feedback clearing calls. *)

open Tl
module F = Sim.Frame

type direction = Up | Down

let direction_to_string = function Up -> "up" | Down -> "down"

let hall_press f d = Fmt.str "hall_button_press_%d_%s" f (direction_to_string d)
let hall_call f d = Fmt.str "hall_call_%d_%s" f (direction_to_string d)
let car_press f = Fmt.str "car_button_press_%d" f
let car_call f = Fmt.str "car_call_%d" f

(* A button controller latches its press into its call until the
   dispatch controller reports the floor served. *)
let latch ~floor:f ~press ~call b =
  let press = F.Bind.bool b press
  and call = F.Bind.bool b call
  and served = F.Bind.int b "served_floor" in
  fun fr ->
    let pressed = F.bool fr press in
    let latched = F.bool fr call in
    (* floors start at 1, so a non-integer [served_floor] serves none *)
    let served = F.int_or fr served 0 = f in
    F.set_bool fr call ((pressed || latched) && not served)

(** One car-button controller per floor [f]: latches the press into the
    call until the floor is served. *)
let car_button_controller ~floor:f : Sim.Component.t =
  Sim.Component.make
    ~name:(Fmt.str "CarButtonController_%d" f)
    ~outputs:[ (car_call f, Value.Bool false) ]
    (latch ~floor:f ~press:(car_press f) ~call:(car_call f))

(** One hall-button controller per floor and direction. *)
let hall_button_controller ~floor:f ~direction:d : Sim.Component.t =
  Sim.Component.make
    ~name:(Fmt.str "HallButtonController_%d_%s" f (direction_to_string d))
    ~outputs:[ (hall_call f d, Value.Bool false) ]
    (latch ~floor:f ~press:(hall_press f d) ~call:(hall_call f d))

(** All button-controller components for a building of [floors] floors
    (floor 1 has no down hall button; the top floor no up button). *)
let all ~floors : Sim.Component.t list =
  List.concat_map
    (fun f ->
      car_button_controller ~floor:f
      :: ((if f < floors then [ hall_button_controller ~floor:f ~direction:Up ] else [])
         @ if f > 1 then [ hall_button_controller ~floor:f ~direction:Down ] else []))
    (List.init floors (fun i -> i + 1))

(** Initial values for the passenger-facing press inputs (owned by the
    scenario's Passenger stimulus). *)
let press_inputs ~floors =
  List.concat_map
    (fun f ->
      (car_press f, Value.Bool false)
      :: ((if f < floors then [ (hall_press f Up, Value.Bool false) ] else [])
         @ if f > 1 then [ (hall_press f Down, Value.Bool false) ] else []))
    (List.init floors (fun i -> i + 1))

(** The call slots of a building, bound once: index [f - 1] is floor [f]
    (a missing hall button's entry is never read). *)
type calls = {
  car : bool F.slot array;
  up : bool F.slot array;
  down : bool F.slot array;
}

let bind_calls ~floors b =
  let per valid call =
    Array.init floors (fun i ->
        let f = i + 1 in
        F.Bind.bool b (if valid f then call f else car_call f))
  in
  {
    car = per (fun _ -> true) car_call;
    up = per (fun f -> f < floors) (fun f -> hall_call f Up);
    down = per (fun f -> f > 1) (fun f -> hall_call f Down);
  }

(** Outstanding calls visible in the previous snapshot, nearest-first
    relative to the given floor — the dispatch controller's view. *)
let outstanding ~floors calls fr ~from =
  let calls =
    List.filter
      (fun f ->
        F.bool fr calls.car.(f - 1)
        || (f < floors && F.bool fr calls.up.(f - 1))
        || (f > 1 && F.bool fr calls.down.(f - 1)))
      (List.init floors (fun i -> i + 1))
  in
  List.sort (fun a b -> compare (abs (a - from)) (abs (b - from))) calls
