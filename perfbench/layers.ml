(** The per-layer pass: a campaign grid rebuilt cell by cell from the
    layers' public functions, each call wrapped in a {!Probe} span, plus
    the journal read path, the analytics fold and the serve wire codec
    applied to the grid's own results.

    The cell pipeline mirrors [Scenarios.Runner.run] (the same cache keys,
    so the trace-store and outcome-cache counters match the library run)
    and [Scenarios.Campaign.run] (the same classification and journal
    keys), so its cells — and the CSV rendered from them — must equal the
    library's byte for byte. It runs sequentially, so the minor-word
    counts are those of the one domain doing the work. *)

open Scenarios

let defects = Vehicle.Defects.repaired
let timing = Vehicle.Arbiter.default_timing
let dynamics = Vehicle.Plant.default_dynamics

let simulate ~inject (s : Defs.t) () =
  let interpose =
    if Inject.Plan.is_empty inject then None
    else Some (Inject.Plan.interposer ~dt:Vehicle.System.dt inject)
  in
  let trace =
    Probe.span "sim" (fun () ->
        Vehicle.System.run ~defects ~timing ~dynamics ?interpose ~duration:s.Defs.duration
          ~objects:s.Defs.objects ~events:s.Defs.events ())
  in
  let results = Probe.span "rtmon" (fun () -> Vehicle.Monitors.run trace) in
  Probe.add "states" (Tl.Trace.length trace);
  (trace, results)

let outcome ~window ~inject (s : Defs.t) =
  let sim_key = Exec.Memo.digest (s, defects, timing, dynamics, inject) in
  Exec.Memo.find_or_add Runner.outcome_cache
    (Exec.Memo.digest (sim_key, window))
    (fun () ->
      let trace, results = Trace_store.find_or_simulate sim_key (simulate ~inject s) in
      Probe.span "classify" (fun () -> Runner.classify ~window s trace results))

let cells ?writer ~window (g : Campaign.grid) =
  List.concat_map
    (fun fault ->
      List.map
        (fun (s : Defs.t) ->
          Probe.span "campaign.cell" @@ fun () ->
          let baseline = outcome ~window ~inject:Inject.Plan.empty s in
          let injected =
            outcome ~window ~inject:(Inject.Plan.make ~seed:g.Campaign.seed [ fault ]) s
          in
          let cell =
            Probe.span "classify" (fun () ->
                Campaign.classify_cell ~window ~seed:g.Campaign.seed fault ~baseline
                  injected)
          in
          Option.iter
            (fun w ->
              let key =
                Campaign.cell_key ~seed:g.Campaign.seed ~window ~defects fault s
              in
              Probe.span "journal.append" (fun () -> Journal.append w ~key cell))
            writer;
          cell)
        g.Campaign.grid_scenarios)
    g.Campaign.faults

(** The simulation states a finished library run of [g] produced, read
    back from the shared-trace store (one trace per distinct simulation;
    these lookups count as store hits, so read the store's counters
    first). *)
let grid_states (g : Campaign.grid) =
  let states inject s =
    let sim_key = Exec.Memo.digest (s, defects, timing, dynamics, inject) in
    let trace, _ =
      Trace_store.find_or_simulate sim_key (fun () ->
          failwith "perfbench: a simulated trace left the trace store")
    in
    Tl.Trace.length trace
  in
  List.fold_left
    (fun acc s -> acc + states Inject.Plan.empty s)
    0 g.Campaign.grid_scenarios
  + List.fold_left
      (fun acc fault ->
        List.fold_left
          (fun acc s -> acc + states (Inject.Plan.make ~seed:g.Campaign.seed [ fault ]) s)
          acc g.Campaign.grid_scenarios)
      0 g.Campaign.faults

(** [overhead ~pairs untraced traced] runs the untraced and the traced
    form of the same work alternately, [pairs] times each, and returns the
    ratio of their median durations ([trace.overhead_ratio]). Alternating
    keeps a drift of the machine's speed, or a run-order effect, out of
    the ratio. *)
let overhead ~pairs untraced traced =
  let u = ref [] and t = ref [] in
  for _ = 1 to pairs do
    u := untraced () :: !u;
    t := Probe.traced traced :: !t
  done;
  Probe.median !t /. Probe.median !u

(** Render cells through the library's campaign CSV. *)
let csv (g : Campaign.grid) ~window cells =
  Export.campaign_csv
    {
      Campaign.seed = g.Campaign.seed;
      window;
      scenarios = List.map (fun (s : Defs.t) -> s.Defs.number) g.Campaign.grid_scenarios;
      cells;
      detected = 0;
      missed = 0;
      spurious = 0;
      no_effect = 0;
      hits = 0;
      false_negatives = 0;
      false_positives = 0;
      inhibited = 0;
      robustness =
        {
          Campaign.executed = 0;
          replayed = 0;
          retried = 0;
          retries = 0;
          quarantined = 0;
          degraded = false;
        };
    }

(** The cells of a grid in grid order, as read back from its journal. *)
let replay ~journal ~window (g : Campaign.grid) =
  let tbl = Hashtbl.create 64 in
  let (), stats =
    Journal.fold journal ~init:() ~f:(fun () k (c : Campaign.cell) ->
        Hashtbl.replace tbl k c)
  in
  let cells =
    List.concat_map
      (fun fault ->
        List.map
          (fun s ->
            Hashtbl.find_opt tbl
              (Campaign.cell_key ~seed:g.Campaign.seed ~window ~defects fault s))
          g.Campaign.grid_scenarios)
      g.Campaign.faults
  in
  (cells, stats)

(* ------------------------------------------------------------------ *)
(* Metric helpers                                                      *)

let us_per (a : Probe.acc) n =
  if n = 0 then 0. else a.Probe.total_s *. 1e6 /. float_of_int n

let words_per (a : Probe.acc) n = if n = 0 then 0. else a.Probe.words /. float_of_int n
let trace_store_bytes = Obs.Metrics.counter "trace_store.bytes"
let h_task_run = Obs.Metrics.histogram "pool.task_run_s"
let h_task_wait = Obs.Metrics.histogram "pool.task_wait_s"

type exec = { busy_ratio : float; task_wait_ms_p50 : float }

(** Exec-layer figures of the pool batches run since the last
    [Obs.Metrics.reset], read from the obs/1 registry: read them as soon
    as the batches of interest end, before any other pool work. *)
let exec_sample ~wall ~domains =
  let run = Obs.Metrics.summary h_task_run in
  let wait = Obs.Metrics.summary h_task_wait in
  {
    busy_ratio = run.Obs.Metrics.sum /. (wall *. float_of_int domains);
    task_wait_ms_p50 = wait.Obs.Metrics.p50 *. 1e3;
  }

let exec_metrics (r : Report.t) e =
  Report.layer r "pool.busy_ratio" e.busy_ratio "ratio";
  Report.layer r "pool.task_wait_ms_p50" e.task_wait_ms_p50 "ms"

(* A few microseconds is below the clock's useful resolution for one
   call: time [reps] calls and keep the median. *)
let reps = 200

let repeat name f =
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Probe.span name f))
  done

let decode frame =
  let buf = Serve.Wire.Frame.create () in
  Serve.Wire.Frame.feed buf (Bytes.unsafe_of_string frame) (String.length frame);
  Serve.Wire.Frame.decode buf

(** Serve-layer metrics on real frames: every request a client sends for
    [specs] and every reply the daemon sends back ([csvs], in spec order),
    plus the daemon's request digest. Encode and decode times are per
    round trip (request and reply frame). Checks that each frame decodes to
    the value encoded. *)
let wire_metrics (r : Report.t) (specs : Serve.Wire.spec list) csvs =
  Probe.traced (fun () ->
      List.iter2
        (fun (spec : Serve.Wire.spec) csv ->
          let rq = Serve.Wire.Submit { spec; deadline_s = None } in
          let rp = Serve.Wire.Result { ticket = 0; csv; durable = true } in
          let rq_frame = Serve.Wire.Frame.encode rq in
          let rp_frame = Serve.Wire.Frame.encode rp in
          Probe.add "reply_bytes" (String.length rp_frame);
          (* one round trip: the request and its reply *)
          repeat "wire.encode" (fun () ->
              (Serve.Wire.Frame.encode rq, Serve.Wire.Frame.encode rp));
          repeat "wire.decode" (fun () -> (decode rq_frame, decode rp_frame));
          Report.check r "wire: request frame decodes to the request"
            (match decode rq_frame with
            | `Frame (v : Serve.Wire.request) -> compare v rq = 0
            | _ -> false);
          Report.check r "wire: reply frame decodes to the reply"
            (match decode rp_frame with
            | `Frame (v : Serve.Wire.response) -> compare v rp = 0
            | _ -> false);
          (* the daemon's request key: the resolved spec's canonical data *)
          let g = Gen.grid_of_spec spec in
          repeat "memo.digest" (fun () ->
              Exec.Memo.digest
                ( g.Campaign.seed,
                  List.map Inject.Fault.to_string g.Campaign.faults,
                  List.map (fun (d : Defs.t) -> d.Defs.number) g.Campaign.grid_scenarios,
                  spec.Serve.Wire.window )))
        specs csvs);
  let med name = Probe.median (Probe.get name).Probe.samples *. 1e6 in
  Report.layer r "wire.encode_us" (med "wire.encode") "us";
  Report.layer r "wire.decode_us" (med "wire.decode") "us";
  Report.layer r "wire.reply_bytes"
    (float_of_int (Probe.count "reply_bytes") /. float_of_int (List.length specs))
    "bytes";
  Report.layer r "memo.digest_us" (med "memo.digest") "us"

(** Feed [cells] live through the miner, as a campaign's [on_cell] hook
    does, and render all three tables. *)
let analytics_live cells =
  let a = Analytics.Analyze.create () in
  List.iter
    (fun c -> Probe.span "analytics.observe" (fun () -> Analytics.Analyze.observe a c))
    cells;
  Probe.span "analytics.render" (fun () ->
      ignore
        ( Analytics.Analyze.cascade_csv a,
          Analytics.Analyze.trajectory_csv a,
          Analytics.Analyze.residual_csv a ));
  a

let analytics_metrics (r : Report.t) a ~records =
  Report.layer r "analytics.observe_us_per_record"
    (us_per (Probe.get "analytics.observe") records)
    "us";
  Report.layer r "analytics.render_ms"
    (Probe.median (Probe.get "analytics.render").Probe.samples *. 1e3)
    "ms";
  Report.layer r "analytics.footprint"
    (float_of_int (Analytics.Analyze.footprint a))
    "count"

let journal_read_metrics (r : Report.t) ~fold_s ~records ~skipped =
  Report.layer r "journal.fold_us_per_record"
    (if records = 0 then 0. else fold_s *. 1e6 /. float_of_int records)
    "us";
  Report.layer r "journal.skipped_records" (float_of_int skipped) "count"

(** The traced cell pipeline over [g] at each of [windows] in turn —
    [(window, expect_csv)] pairs — from cold caches and a collected heap
    (as the library runs it is compared with start), journaled to
    [journal]. The windows share every simulation, so the later ones hit
    the trace store. Checks each window's CSV against the library run's
    [expect_csv]; records the sim, rtmon, classify, cache and journal-write
    metrics and the deterministic counters.
    Returns the cells of each window and the pipeline's wall time. *)
let pipeline (r : Report.t) ~journal ~windows (g : Campaign.grid) =
  Ctx.release ();
  let bytes0 = Obs.Metrics.value trace_store_bytes in
  let per_window, wall =
    Probe.traced (fun () ->
        Probe.time (fun () ->
            Journal.with_writer ~fresh:true journal (fun w ->
                List.map (fun (window, _) -> cells ~writer:w ~window g) windows)))
  in
  List.iter2
    (fun (window, expect_csv) cells ->
      Report.check r "traced pipeline CSV = library campaign CSV"
        (csv g ~window cells = expect_csv))
    windows per_window;
  let n_cells = List.fold_left (fun acc l -> acc + List.length l) 0 per_window in
  let sim = Probe.get "sim" and rtmon = Probe.get "rtmon" in
  let states = Probe.count "states" in
  Report.layer r "sim.us_per_step" (us_per sim states) "us";
  Report.layer r "sim.minor_words_per_step" (words_per sim states) "words";
  Report.layer r "sim.steps" (float_of_int states) "count";
  Report.layer r "rtmon.us_per_state" (us_per rtmon states) "us";
  Report.layer r "rtmon.minor_words_per_state" (words_per rtmon states) "words";
  Report.layer r "rtmon.states" (float_of_int states) "count";
  Report.layer r "classify.us_per_cell" (us_per (Probe.get "classify") n_cells) "us";
  let ts = Trace_store.stats () and oc = Runner.cache_stats () in
  let ratio (s : Exec.Memo.stats) =
    let lookups = s.Exec.Memo.hits + s.Exec.Memo.misses in
    float_of_int s.Exec.Memo.hits /. float_of_int (max 1 lookups)
  in
  Report.layer r "trace_store.hit_ratio" (ratio ts) "ratio";
  Report.layer r "trace_store.mb"
    (float_of_int (Obs.Metrics.value trace_store_bytes - bytes0) /. 1e6)
    "MB";
  Report.layer r "outcome_cache.hit_ratio" (ratio oc) "ratio";
  let append = Probe.get "journal.append" in
  Report.layer r "journal.append_us_p50" (Probe.median append.Probe.samples *. 1e6) "us";
  let journal_bytes = (Unix.stat journal).Unix.st_size in
  Report.layer r "journal.bytes_per_record"
    (float_of_int journal_bytes /. float_of_int (max 1 append.Probe.count))
    "bytes";
  Report.counter_int r "sim.steps" states;
  Report.counter_int r "rtmon.states" states;
  Report.counter_float r "sim.minor_words_per_step" (words_per sim states);
  Report.counter_float r "rtmon.minor_words_per_state" (words_per rtmon states);
  Report.counter_int r "trace_store.hits" ts.Exec.Memo.hits;
  Report.counter_int r "trace_store.misses" ts.Exec.Memo.misses;
  Report.counter_int r "journal.bytes" journal_bytes;
  (per_window, wall)

(** Journal read path over the pass's own journal (replaying it must
    give back [cells]) and live analytics over the cells. *)
let read_side (r : Report.t) ~journal ~window (g : Campaign.grid) cells =
  let (replayed, stats), fold_s =
    Probe.traced (fun () -> Probe.time (fun () -> replay ~journal ~window g))
  in
  Report.check r "journal replay gives back the cells"
    (compare (List.map Option.some cells) replayed = 0);
  journal_read_metrics r ~fold_s ~records:stats.Journal.fold_records
    ~skipped:(if stats.Journal.fold_dropped_bytes > 0 then 1 else 0);
  let a = Probe.traced (fun () -> analytics_live cells) in
  analytics_metrics r a ~records:(List.length cells)

(** The spec a client would submit for [g]. *)
let spec_of_grid ~window (g : Campaign.grid) =
  {
    Serve.Wire.seed = g.Campaign.seed;
    faults = List.map Inject.Fault.to_string g.Campaign.faults;
    scenarios = List.map (fun (s : Defs.t) -> s.Defs.number) g.Campaign.grid_scenarios;
    window = Some window;
    retries = 0;
  }
