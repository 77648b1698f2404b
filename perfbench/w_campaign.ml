(** [campaign]: a cold fault × scenario grid — all ten scenarios against
    one seeded specimen of each of {!Gen}'s three families — run through
    [Scenarios.Campaign.run] on every core with an fsync-per-cell journal.
    Nearly all of its time is simulation and monitoring. *)

open Scenarios

let window = Runner.default_window
let journal = "campaign.jnl"
let retry = Exec.Supervise.policy ~max_attempts:1 ()

(* The pinned seed-42 smoke matrix (EXPERIMENTS.md). *)
let smoke_check (r : Report.t) ~domains =
  let c = Campaign.run ~domains (Campaign.smoke ()) in
  Report.check r "seed-42 smoke counts" (Ctx.smoke_counts_hold c)

(** One cold, journaled library run of [g]. *)
let cold_run ~domains g =
  Ctx.release ();
  Probe.time (fun () -> Campaign.run ~domains ~journal ~retry g)

(* Checks every library run shares: nothing quarantined, every cell
   executed, and the journal replays to the returned cells. *)
let check_run (r : Report.t) (g : Campaign.grid) (c : Campaign.t) =
  let n = List.length g.Campaign.faults * List.length g.Campaign.grid_scenarios in
  r.Report.attempted <- r.Report.attempted + n;
  r.Report.failed <- r.Report.failed + c.Campaign.robustness.Campaign.quarantined;
  Report.check r "campaign executed every cell"
    (c.Campaign.robustness.Campaign.executed = n && List.length c.Campaign.cells = n);
  let replayed, _ = Layers.replay ~journal ~window g in
  Report.check r "campaign journal replays to the returned cells"
    (compare replayed (List.map Option.some c.Campaign.cells) = 0)

(* Per-grid deterministic counters: equal for every cold run of a seed. *)
let grid_counters g (c : Campaign.t) =
  let ts = Trace_store.stats () in
  [
    ("csv.md5", Digest.to_hex (Digest.string (Export.campaign_csv c)));
    ("trace_store.hits", string_of_int ts.Exec.Memo.hits);
    ("trace_store.misses", string_of_int ts.Exec.Memo.misses);
    ("journal.bytes", string_of_int (Unix.stat journal).Unix.st_size);
    ( "collided_cells",
      string_of_int
        (List.length (List.filter (fun x -> x.Campaign.collided) c.Campaign.cells)) );
    ("sim.states", string_of_int (Layers.grid_states g));
  ]

let run (ctx : Ctx.t) (r : Report.t) =
  let domains = ctx.Ctx.domains in
  let g =
    Ctx.setup r (fun () ->
        Ctx.release ();
        Ctx.remove journal;
        smoke_check r ~domains;
        Gen.campaign_grid ~seed:ctx.Ctx.seed)
  in
  let cells = List.length g.Campaign.faults * List.length g.Campaign.grid_scenarios in
  if not ctx.Ctx.trace then begin
    let walls = ref [] and first = ref None in
    Obs.Metrics.reset ();
    Ctx.release ();
    let m =
      Ctx.measure_calibrated ~memory:false ctx.Ctx.seconds (fun () ->
          let c, wall = cold_run ~domains g in
          walls := wall :: !walls;
          check_run r g c;
          let counters = grid_counters g c in
          (match !first with
          | None ->
              first := Some counters;
              List.iter (fun (k, v) -> Report.counter r k v) counters
          | Some f ->
              Report.check r "every cold grid of the run repeats its counters"
                (f = counters));
          (float_of_string (List.assoc "sim.states" counters), wall))
    in
    let wall = Probe.median !walls in
    (* Gated per simulated state: how many cells of a seeded grid collide
       (and so stop early) varies with the seed, the cost of a state does
       not. *)
    Ctx.report_calibrated r m ~rate_name:"states_per_s" ~rate_unit:"states/s";
    Report.named r "cells_per_s" (float_of_int cells /. wall) "cells/s";
    Report.named r "grid_s" wall "s";
    Report.named r "grids" (float_of_int (List.length !walls)) "count"
  end
  else begin
    (* untraced, on every core: the exec metrics and the reference CSV *)
    Obs.Metrics.reset ();
    let c, wall = cold_run ~domains g in
    let ts_lib = Trace_store.stats () in
    check_run r g c;
    Layers.exec_metrics r (Layers.exec_sample ~wall ~domains);
    let expect_csv = Export.campaign_csv c in
    (* the same cold cells with spans and without, on one scenario *)
    let column =
      { g with Campaign.grid_scenarios = [ List.hd g.Campaign.grid_scenarios ] }
    in
    let pass () =
      Ctx.release ();
      snd (Probe.time (fun () -> Layers.cells ~window column))
    in
    let ratio = Layers.overhead ~pairs:3 pass pass in
    Probe.reset ();
    let traced_cells, _ =
      Layers.pipeline r ~journal:"traced.jnl" ~windows:[ (window, expect_csv) ] g
    in
    let traced_cells = List.hd traced_cells in
    let ts = Trace_store.stats () in
    Report.check r "traced trace-store hits/misses = library run's"
      (ts.Exec.Memo.hits = ts_lib.Exec.Memo.hits
      && ts.Exec.Memo.misses = ts_lib.Exec.Memo.misses);
    Layers.read_side r ~journal:"traced.jnl" ~window g traced_cells;
    Layers.wire_metrics r [ Layers.spec_of_grid ~window g ] [ expect_csv ];
    Report.layer r "trace.overhead_ratio" ratio "ratio"
  end
