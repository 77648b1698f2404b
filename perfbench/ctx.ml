(** What every workload run is given, and the pieces they share. *)

type t = {
  seed : int;
  seconds : float;  (** how long the measured phase runs *)
  trace : bool;  (** the per-layer traced run instead of the end-to-end one *)
  domains : int;  (** the machine's core count, used for every pool *)
}

(** Set-up repetitions; [setup_s] is their median. *)
let setup_times = 3

(** [setup ?teardown r f] runs the set-up [f] {!setup_times} times,
    reports the median duration as [setup_s] and returns the last result.
    Every earlier result is passed to [teardown] outside the timing. *)
let setup ?(teardown = ignore) (r : Report.t) f =
  let rec go i acc =
    let v, dt = Probe.time f in
    if i = setup_times then (v, dt :: acc)
    else begin
      teardown v;
      go (i + 1) (dt :: acc)
    end
  in
  let v, times = go 1 [] in
  Report.e2e r "setup_s" (Probe.median times) "s";
  v

(** The pinned counts of the smoke grid at the default window
    (EXPERIMENTS.md). *)
let smoke_counts_hold (c : Scenarios.Campaign.t) =
  let open Scenarios.Campaign in
  c.detected = 3
  && c.missed = 4
  && c.spurious = 1
  && c.no_effect = 4
  && c.hits = 70
  && c.false_negatives = 22
  && c.false_positives = 63
  && c.inhibited = 3

(** Remove a file or a directory tree, if present. *)
let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(** Peak resident set size of this process, MB (Linux [VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "perfbench: no VmHWM in /proc/self/status"
      in
      go ())

(** Drop the simulation caches and collect, so a measured phase starts
    from the same heap whatever ran before it. *)
let release () =
  Scenarios.Runner.clear_cache ();
  Gc.full_major ()

(** Keep measuring until [seconds] have passed: [step ()] runs one
    measured unit and returns its duration. Another unit starts only if
    it would end less than half a unit past the deadline; at least one
    unit always runs. *)
let measure_for seconds step =
  let t0 = Obs.Clock.now () in
  let rec go () =
    let d = step () in
    if Obs.Clock.now () -. t0 +. (d /. 2.) < seconds then go ()
  in
  go ()

type calibrated = {
  rates : float list;  (** work per second, one per measured unit *)
  per_ref : float list;
      (** work per reference unit: each rate times its reference time *)
  refs : float list;  (** the reference times, seconds *)
}

(** [measure_calibrated ~memory seconds step] measures like
    {!measure_for}, and reads the reference time ({!Calib.reference},
    with or without its [memory] part) after each measured
    unit, for at least a tenth of the unit's time, so that a reading spans
    enough of the host's changes to stand for them. A unit's rate is
    scaled by the mean of the readings on either side of it (the first
    unit's, by the one after it). [step ()] runs one measured unit and
    returns the work it did and the seconds that work took. *)
let measure_calibrated ~memory seconds step =
  let rates = ref [] and per_ref = ref [] and refs = ref [] in
  measure_for seconds (fun () ->
      let t0 = Obs.Clock.now () in
      let work, d = step () in
      let after = Calib.reference ~memory ~min_s:(d /. 10.) in
      let before = match !refs with [] -> after | r :: _ -> r in
      let rate = work /. d in
      rates := rate :: !rates;
      per_ref := (rate *. (before +. after) /. 2.) :: !per_ref;
      refs := after :: !refs;
      Obs.Clock.now () -. t0);
  { rates = !rates; per_ref = !per_ref; refs = !refs }

(** Report a calibrated measurement: [throughput_per_ref] (gated, the
    median unit's work per reference unit), the raw median rate under
    [rate_name], and the median reference time. *)
let report_calibrated (r : Report.t) (m : calibrated) ~rate_name ~rate_unit =
  Report.e2e r "throughput_per_ref" (Probe.median m.per_ref) "1/ref";
  Report.named r rate_name (Probe.median m.rates) rate_unit;
  Report.named r "reference_ms" (Probe.median m.refs *. 1e3) "ms"
