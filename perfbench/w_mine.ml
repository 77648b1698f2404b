(** [mine]: the journal read path. Set-up runs the smoke grid — every
    detection class, and collisions — at the five windows of the
    [ablation_window] sweep, and appends its cells, re-keyed under many
    campaign seeds, to a journal with [Scenarios.Journal.append]. The
    measured phase mines that journal into all three analytics tables and
    resumes a fully journaled campaign from it ([executed = 0]): journal
    codec and analytics fold, no simulation at all. *)

open Scenarios

let journal = "mine.jnl"

(* Campaign seeds the journal spreads the grid's cells across: 64 seeds ×
   5 windows × 12 cells = 3840 records, so that one mining pass takes
   about a fifth of a second (README). *)
let seeds = 64

type fixture = {
  grid : Campaign.grid;
  base : (float * Campaign.t) list;  (** the grid's library run per window *)
  exec : Layers.exec;  (** the pool figures of those runs *)
  journaled : ((int * float) * Campaign.cell list) list;
      (** the journaled cells per (campaign seed, window) *)
  records : int;
  tables : string * string * string;  (** the tables mined live *)
}

let reseed seed cells =
  List.map (fun (c : Campaign.cell) -> { c with Campaign.seed }) cells

let render a =
  ( Analytics.Analyze.cascade_csv a,
    Analytics.Analyze.trajectory_csv a,
    Analytics.Analyze.residual_csv a )

let setup ~seed ~domains () =
  Ctx.release ();
  let grid = Gen.mine_grid ~seed in
  Obs.Metrics.reset ();
  let base, wall =
    Probe.time (fun () ->
        List.map
          (fun window -> (window, Campaign.run ~domains ~window grid))
          Gen.mine_windows)
  in
  let exec = Layers.exec_sample ~wall ~domains in
  let journaled =
    List.concat_map
      (fun seed ->
        List.map
          (fun (window, (c : Campaign.t)) ->
            ((seed, window), reseed seed c.Campaign.cells))
          base)
      (Gen.mine_seeds ~seed seeds)
  in
  Journal.with_writer ~fresh:true journal (fun w ->
      List.iter
        (fun ((seed, window), cells) ->
          List.iter
            (fun (c : Campaign.cell) ->
              let key =
                Campaign.cell_key ~seed ~window ~defects:Layers.defects c.Campaign.fault
                  (Defs.get c.Campaign.scenario)
              in
              Journal.append w ~key c)
            cells)
        journaled);
  let live = Analytics.Analyze.create () in
  List.iter (fun (_, cells) -> List.iter (Analytics.Analyze.observe live) cells) journaled;
  {
    grid;
    base;
    exec;
    journaled;
    records = List.fold_left (fun acc (_, cells) -> acc + List.length cells) 0 journaled;
    tables = render live;
  }

(** One library mining pass: [Analytics.Analyze.ingest] plus all three
    CSVs, checked against the live tables. *)
let ingest_pass (r : Report.t) fx =
  let (a, tables), dt =
    Probe.time (fun () ->
        let a = Analytics.Analyze.create () in
        Analytics.Analyze.ingest a journal;
        (a, render a))
  in
  r.Report.attempted <- r.Report.attempted + fx.records;
  r.Report.failed <- r.Report.failed + Analytics.Analyze.skipped a;
  Report.check r "mined tables = live tables" (tables = fx.tables);
  Report.check r "every journaled record mined"
    (Analytics.Analyze.records a = fx.records);
  dt

(** One resume of a fully journaled campaign: nothing may execute, and
    the replayed cells must be the journaled ones. *)
let resume_pass (r : Report.t) fx i =
  let (seed, window), cells = List.nth fx.journaled (i mod List.length fx.journaled) in
  let c, dt =
    Probe.time (fun () ->
        Campaign.run ~domains:1 ~window ~journal ~resume:true
          { fx.grid with Campaign.seed })
  in
  let rb = c.Campaign.robustness in
  Report.check r "resume executes nothing"
    (rb.Campaign.executed = 0 && rb.Campaign.replayed = List.length cells);
  Report.check r "resume replays the journaled cells"
    (compare c.Campaign.cells cells = 0);
  dt

(** The traced mining pass: the same fold as [Analyze.ingest], built
    from [Journal.fold], [Record.validate] and [Analyze.observe_record],
    with the analytics calls in spans — the fold's own time is the rest
    of the [analytics.ingest] span. *)
let traced_ingest_pass (r : Report.t) fx =
  let skipped = ref 0 in
  let (a, tables), dt =
    Probe.time @@ fun () ->
    Probe.span "analytics.ingest" @@ fun () ->
    let a = Analytics.Analyze.create () in
    let (), stats =
      Journal.fold journal ~init:() ~f:(fun () _ (c : Campaign.cell) ->
          Probe.span "analytics.observe" (fun () ->
              match Analytics.Record.validate (Analytics.Record.of_cell c) with
              | Ok rc -> Analytics.Analyze.observe_record a rc
              | Error _ -> incr skipped))
    in
    if stats.Journal.fold_dropped_bytes > 0 then incr skipped;
    (a, Probe.span "analytics.render" (fun () -> render a))
  in
  Report.check r "traced mined tables = live tables" (tables = fx.tables);
  (a, dt, !skipped)

let run (ctx : Ctx.t) (r : Report.t) =
  let fx = Ctx.setup r (setup ~seed:ctx.Ctx.seed ~domains:ctx.Ctx.domains) in
  Report.check r "smoke grid quarantined nothing"
    (List.for_all
       (fun (_, (c : Campaign.t)) -> c.Campaign.robustness.Campaign.quarantined = 0)
       fx.base);
  Report.check r "smoke counts at the default window"
    (Ctx.smoke_counts_hold (List.assoc Runner.default_window fx.base));
  Report.check r "the journal holds collided cells"
    (List.exists
       (fun (_, cells) -> List.exists (fun (c : Campaign.cell) -> c.Campaign.collided) cells)
       fx.journaled);
  (* a mining process holds no simulation caches *)
  Ctx.release ();
  if not ctx.Ctx.trace then begin
    let resumes = ref [] and i = ref 0 in
    let m =
      Ctx.measure_calibrated ~memory:true ctx.Ctx.seconds (fun () ->
          let d = ingest_pass r fx in
          resumes := resume_pass r fx !i :: !resumes;
          incr i;
          (float_of_int fx.records, d))
    in
    let resume_s = Probe.median !resumes in
    Ctx.report_calibrated r m ~rate_name:"records_per_s" ~rate_unit:"records/s";
    Report.named r "resume_records_per_s"
      (float_of_int fx.records /. resume_s)
      "records/s";
    Report.named r "resume_ms" (resume_s *. 1e3) "ms";
    Report.named r "journal_records" (float_of_int fx.records) "count";
    Report.counter_int r "journal.records" fx.records;
    Report.counter_int r "journal.bytes" (Unix.stat journal).Unix.st_size
  end
  else begin
    Layers.exec_metrics r fx.exec;
    Probe.reset ();
    let _ =
      Layers.pipeline r ~journal:"traced.jnl"
        ~windows:(List.map (fun (w, c) -> (w, Export.campaign_csv c)) fx.base)
        fx.grid
    in
    let (seed0, window0), cells0 = List.hd fx.journaled in
    let grid0 = { fx.grid with Campaign.seed = seed0 } in
    Layers.wire_metrics r
      [ Layers.spec_of_grid ~window:window0 grid0 ]
      [ Layers.csv grid0 ~window:window0 cells0 ];
    Probe.reset ();
    (* untraced and traced mining passes alternate *)
    let ingests = ref [] and passes = ref [] and last = ref None and skipped = ref 0 in
    Ctx.measure_for ctx.Ctx.seconds (fun () ->
        let d = ingest_pass r fx in
        let a, dt, s = Probe.traced (fun () -> traced_ingest_pass r fx) in
        ingests := d :: !ingests;
        passes := dt :: !passes;
        last := Some a;
        skipped := !skipped + s;
        d +. dt);
    let n = List.length !passes in
    let self name = (Probe.get name).Probe.total_s in
    let fold_s =
      (self "analytics.ingest" -. self "analytics.observe" -. self "analytics.render")
      /. float_of_int n
    in
    Layers.journal_read_metrics r ~fold_s ~records:fx.records ~skipped:(!skipped / n);
    Layers.analytics_metrics r (Option.get !last) ~records:(fx.records * n);
    Report.layer r "trace.overhead_ratio"
      (Probe.median !passes /. Probe.median !ingests)
      "ratio"
  end
