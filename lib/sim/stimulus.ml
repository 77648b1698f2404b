(** Scripted stimuli: driver and environment inputs for evaluation
    scenarios, expressed as timed set-events on input variables. *)

open Tl

type event = { at : float; var : string; value : Value.t }

let set at var value = { at; var; value }
let press at var = { at; var; value = Value.Bool true }
let release at var = { at; var; value = Value.Bool false }

(** [component ~name ~init events] — a component that owns the scripted
    variables: each variable takes its initial value until an event fires,
    then holds the event value (later events override earlier ones). Events
    need not be sorted. The bound step walks a time-sorted array with a
    cursor; an event whose time is NaN never fires. *)
let component ~name ~init events : Component.t =
  let events =
    List.stable_sort
      (fun a b -> Float.compare a.at b.at)
      (List.filter (fun e -> not (Float.is_nan e.at)) events)
  in
  Component.make ~name ~outputs:init (fun b ->
      let evs = Array.of_list events in
      let n = Array.length evs in
      let at = Float.Array.init n (fun k -> evs.(k).at) in
      let slots = Array.map (fun e -> Frame.Bind.value b e.var) evs in
      let cells = Array.map (fun e -> Frame.Cell.of_value b e.value) evs in
      let cursor = ref 0 in
      fun fr ->
        let horizon = Frame.now fr +. 1e-12 in
        while !cursor < n && Float.Array.get at !cursor <= horizon do
          Frame.store fr slots.(!cursor) cells.(!cursor);
          incr cursor
        done)

(** A float signal driven by a function of time (e.g. a lead vehicle's
    scripted speed profile). *)
let signal ~name ~var f : Component.t =
  Component.make ~name
    ~outputs:[ (var, Value.Float (f 0.)) ]
    (fun b ->
      let s = Frame.Bind.float b var in
      fun fr -> Frame.set_float fr s (f (Frame.now fr)))
