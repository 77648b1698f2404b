(** Seeded workload generation. Everything a workload feeds the program —
    fault specimens, campaign grids, serve specs, journal seeds — is drawn
    here from the [--seed] argument, so one seed always yields one input.

    Faults are generated as {!Inject.Spec} grammar strings with short
    decimal parameters and then parsed: the batch path and the serve
    daemon (which receives the strings over the wire) resolve the very
    same values. *)

(* A splittable stream per purpose: adding a draw to one purpose never
   shifts another purpose's inputs. *)
let stream seed purpose = Inject.Prng.create (Inject.Prng.derive seed purpose)
let int rng n = min (n - 1) (int_of_float (Inject.Prng.float rng *. float_of_int n))
let pick rng l = List.nth l (int rng (List.length l))

(* [lo + k * step] for a uniform [k], printed exactly by [%g]. *)
let decimal rng ~lo ~step ~n = lo +. (step *. float_of_int (int rng n))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let window rng =
  if int rng 2 = 0 then ""
  else
    let from_t = float_of_int (1 + int rng 10) in
    Printf.sprintf "@%g..%g" from_t (from_t +. float_of_int (2 + int rng 7))

(* Grid specimens come from three families, one specimen each, so every
   seed's grid simulates about the same number of states. A fault that
   makes a run collide stops it early, and which faults do that is
   systematic, not random:
   - [blind]: the forward radar goes blind. Both specimens stop the
     same five of the ten runs in the same collisions (the smoke grid's
     "missed" row);
   - [actuation] and [sensing]: seeded models, parameters and windows
     whose runs go the full twenty seconds.
   Faults on [host_speed] are left out: the plant integrates its own
   published speed, so a corrupted speed ends nearly every run within
   seconds, and a grid holding one simulates up to 90% fewer states.
   Across seeds the families use all eight models of [lib/inject]. *)
let blind = [ "stuck=false:object_detected"; "nan:object_range" ]

let actuation rng =
  let open Vehicle.Signals in
  match int rng 4 with
  | 0 -> Printf.sprintf "delay=%d:%s" (50 + (10 * int rng 26)) accel_cmd
  | 1 -> Printf.sprintf "flicker=%g:%s" (decimal rng ~lo:0.1 ~step:0.1 ~n:10) accel_cmd
  | 2 ->
      Printf.sprintf "stuck=%g:%s"
        (decimal rng ~lo:(-3.) ~step:0.5 ~n:7)
        (accel_req "ACC")
  | _ -> Printf.sprintf "delay=%d:%s" (50 + (10 * int rng 26)) steer_cmd

let sensing rng =
  let open Vehicle.Signals in
  match int rng 6 with
  | 0 -> Printf.sprintf "noise=%g:%s" (decimal rng ~lo:0.5 ~step:0.5 ~n:6) object_range
  | 1 -> Printf.sprintf "drift=%g:%s" (decimal rng ~lo:(-2.) ~step:0.5 ~n:4) object_range
  | 2 ->
      Printf.sprintf "spike=%g/%g:%s"
        (decimal rng ~lo:5. ~step:5. ~n:4)
        (decimal rng ~lo:0.5 ~step:0.5 ~n:6)
        object_range
  | 3 -> "hold:" ^ object_closing_speed
  | 4 -> "nan:" ^ host_jerk
  | _ -> Printf.sprintf "noise=%g:%s" (decimal rng ~lo:0.1 ~step:0.1 ~n:5) host_accel

let parse spec =
  let f = Inject.Spec.parse_exn spec in
  (* the wire carries [Fault.to_string]: it must read back as [f] *)
  if Inject.Spec.parse_exn (Inject.Fault.to_string f) <> f then
    failwith ("perfbench: fault spec does not round-trip: " ^ spec);
  f

(** [faults ~seed ~purpose] — one specimen of each family. *)
let faults ~seed ~purpose =
  let rng = stream seed purpose in
  List.map parse
    [ pick rng blind; actuation rng ^ window rng; sensing rng ^ window rng ]

(** The actuation and the sensing specimen: every run goes the full
    twenty seconds, whatever the scenario. *)
let full_length_faults ~seed ~purpose = List.tl (faults ~seed ~purpose)

let scenarios ~seed ~purpose n =
  List.filteri (fun i _ -> i < n) (shuffle (stream seed purpose) Scenarios.Defs.all)

(* Purposes: one stream each. *)
let p_campaign = 1
let p_serve_faults = 2
let p_serve_scenarios = 3

(** The [campaign] grid: every scenario against the three specimens. *)
let campaign_grid ~seed : Scenarios.Campaign.grid =
  {
    Scenarios.Campaign.seed;
    faults = faults ~seed ~purpose:p_campaign;
    grid_scenarios = Scenarios.Defs.all;
  }

(** The real grid [mine] journals: the smoke grid (every detection
    class, and collisions) at campaign seed [seed]. Its fault models draw
    no random numbers, so its cells are the same at every seed but for
    the seed they carry. *)
let mine_grid ~seed = Scenarios.Campaign.smoke ~seed ()

(** The windows [mine] journals the grid at: those of the
    [ablation_window] sweep ([Scenarios.Sweeps.window_sweep]). *)
let mine_windows = [ 0.01; 0.02; 0.05; 0.1; 0.3 ]

(** The campaign seeds the [mine] journal spreads its cells across. *)
let mine_seeds ~seed n = List.init n (fun i -> (seed * 1000) + i)

(** The [serve] specs: the two full-length specimens over three subsets
    of two scenarios
    at four classification windows — twelve distinct requests whose
    simulations all share one trace per (scenario, specimen). *)
let serve_specs ~seed : Serve.Wire.spec list =
  let faults =
    List.map Inject.Fault.to_string (full_length_faults ~seed ~purpose:p_serve_faults)
  in
  let a, b =
    match scenarios ~seed ~purpose:p_serve_scenarios 2 with
    | [ a; b ] -> (a.Scenarios.Defs.number, b.Scenarios.Defs.number)
    | _ -> assert false
  in
  List.concat_map
    (fun window ->
      List.map
        (fun scenarios ->
          { Serve.Wire.seed; faults; scenarios; window = Some window; retries = 0 })
        [ [ a ]; [ b ]; [ a; b ] ])
    [ 0.05; 0.1; 0.2; 0.4 ]

(** The batch grid a serve spec denotes — what the daemon resolves it to. *)
let grid_of_spec (spec : Serve.Wire.spec) : Scenarios.Campaign.grid =
  {
    Scenarios.Campaign.seed = spec.Serve.Wire.seed;
    faults = List.map Inject.Spec.parse_exn spec.Serve.Wire.faults;
    grid_scenarios = List.map Scenarios.Defs.get spec.Serve.Wire.scenarios;
  }
