(** [export] — write scenario traces, figure series and violation tables as
    CSV files for external plotting.

    {v
    export figures --out-dir plots/          # every fig_5_* as CSV
    export scenario 3 --out-dir plots/       # full trace + violations
    export scenario 3 --repaired -s host_speed -s ca_accel_req
    export campaign --seed 42 --out-dir plots/   # detection-coverage matrix
    export campaign --journal c.jnl --retries 2  # crash-safe campaign
    export campaign --journal c.jnl --resume     # finish a killed run;
                                                 # CSV identical to an
                                                 # uninterrupted export
    v} *)

open Cmdliner

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Write an obs/1 JSON telemetry snapshot (pool/cache/journal \
           counters, latency histograms, phase spans) to $(docv) before \
           exiting.")

let write_metrics ~name metrics =
  Option.iter
    (fun path ->
      Obs.Export.write_file ~name path;
      Fmt.pr "wrote metrics snapshot %s@." path)
    metrics

let figures_cmd =
  let out_dir =
    Arg.(value & opt string "." & info [ "out-dir"; "o" ] ~doc:"Output directory.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains"; "j" ] ~docv:"N"
          ~doc:"Simulate the fleet on $(docv) domains (1 = sequential).")
  in
  let run out_dir domains metrics =
    ensure_dir out_dir;
    (* Warm the shared outcome cache for the whole fleet in parallel; each
       figure below then reads its scenario's outcome from the cache. *)
    ignore (Scenarios.Runner.run_all ?domains ());
    Obs.span "export.figures" (fun () ->
        List.iter
          (fun (fig : Scenarios.Figures.t) ->
            let o =
              Scenarios.Runner.run (Scenarios.Defs.get fig.Scenarios.Figures.scenario)
            in
            let path = Filename.concat out_dir (fig.Scenarios.Figures.id ^ ".csv") in
            Scenarios.Export.write_file path (Scenarios.Export.figure_csv fig o);
            Fmt.pr "wrote %s@." path)
          Scenarios.Figures.all);
    write_metrics ~name:"export_figures" metrics
  in
  Cmd.v (Cmd.info "figures" ~doc:"Export every regenerated figure as CSV.")
    Term.(const run $ out_dir $ domains $ metrics_arg)

let scenario_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"SCENARIO") in
  let out_dir =
    Arg.(value & opt string "." & info [ "out-dir"; "o" ] ~doc:"Output directory.")
  in
  let repaired =
    Arg.(value & flag & info [ "repaired" ] ~doc:"Run with every defect fixed.")
  in
  let signals =
    Arg.(value & opt_all string [] & info [ "signal"; "s" ] ~doc:"Restrict trace columns.")
  in
  let stride =
    Arg.(value & opt int 10 & info [ "stride" ] ~doc:"Keep every Nth state (default 10).")
  in
  let run n out_dir repaired signals stride =
    ensure_dir out_dir;
    let defects =
      if repaired then Vehicle.Defects.repaired else Vehicle.Defects.as_evaluated
    in
    let o = Scenarios.Runner.run ~defects (Scenarios.Defs.get n) in
    let suffix = if repaired then "_repaired" else "" in
    let trace_path = Filename.concat out_dir (Fmt.str "scenario_%d%s.csv" n suffix) in
    let signals = match signals with [] -> None | l -> Some l in
    Scenarios.Export.write_file trace_path
      (Scenarios.Export.trace_csv ?signals ~stride o.Scenarios.Runner.trace);
    Fmt.pr "wrote %s@." trace_path;
    let viol_path =
      Filename.concat out_dir (Fmt.str "scenario_%d%s_violations.csv" n suffix)
    in
    Scenarios.Export.write_file viol_path (Scenarios.Export.violations_csv o);
    Fmt.pr "wrote %s@." viol_path
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Export one scenario's trace and violations as CSV.")
    Term.(const run $ n $ out_dir $ repaired $ signals $ stride)

let campaign_cmd =
  let spec_conv =
    Arg.conv
      ( (fun s ->
          match Inject.Spec.parse s with
          | Ok f -> Ok f
          | Error e -> Error (`Msg e)),
        Inject.Fault.pp )
  in
  let out_dir =
    Arg.(value & opt string "." & info [ "out-dir"; "o" ] ~doc:"Output directory.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Campaign seed; same seed, bit-for-bit identical CSV.")
  in
  let faults =
    Arg.(
      value
      & opt_all spec_conv []
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            (Inject.Spec.conv_doc
            ^ " Repeatable; default: the smoke grid's three sensor faults."))
  in
  let scenarios =
    Arg.(
      value
      & opt (list int) [ 1; 3; 7 ]
      & info [ "scenarios" ] ~docv:"N,.."
          ~doc:"Scenario numbers forming the grid columns.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains"; "j" ] ~docv:"N"
          ~doc:"Run the grid on $(docv) domains (1 = sequential).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Fsync-append every completed cell to this crash-safe journal; \
             with $(b,--resume), replay it and execute only the missing \
             cells — the resumed CSV is byte-identical to an uninterrupted \
             export. Without $(b,--resume) an existing journal is \
             truncated.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Replay the $(b,--journal) before running (see above).")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a failing cell up to $(docv) extra times with jittered \
             exponential backoff before quarantining it. Default 0: first \
             failure aborts.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            ("Inject a deterministic infrastructure-fault plan into the \
              campaign's own execution stack (its journal), seeded by \
              $(b,--seed). Every fault is recoverable: \
              the CSV is byte-identical to the chaos-free run. "
            ^ Exec.Chaos.conv_doc))
  in
  let run out_dir seed faults scenarios domains journal resume retries chaos
      metrics =
    if resume && journal = None then begin
      Fmt.epr "--resume requires --journal PATH@.";
      exit 1
    end;
    ensure_dir out_dir;
    let smoke = Scenarios.Campaign.smoke ~seed () in
    let grid =
      {
        Scenarios.Campaign.seed;
        faults = (if faults = [] then smoke.Scenarios.Campaign.faults else faults);
        grid_scenarios = List.map Scenarios.Defs.get scenarios;
      }
    in
    let retry =
      if retries > 0 then
        Some (Exec.Supervise.policy ~max_attempts:(retries + 1) ~seed ())
      else None
    in
    let chaos =
      match chaos with
      | None -> None
      | Some spec -> (
          match Exec.Chaos.parse ~seed spec with
          | Ok plan -> Some plan
          | Error e ->
              Fmt.epr "--chaos: %s@." e;
              exit 1)
    in
    let c =
      Scenarios.Campaign.run ?domains ?journal ~resume ?retry ?chaos grid
    in
    let path = Filename.concat out_dir (Fmt.str "campaign_seed%d.csv" seed) in
    Obs.span "campaign.export" (fun () ->
        Scenarios.Export.write_file path (Scenarios.Export.campaign_csv c));
    let r = c.Scenarios.Campaign.robustness in
    Fmt.pr "cells: executed=%d replayed=%d retried=%d retries=%d quarantined=%d%s@."
      r.Scenarios.Campaign.executed r.Scenarios.Campaign.replayed
      r.Scenarios.Campaign.retried r.Scenarios.Campaign.retries
      r.Scenarios.Campaign.quarantined
      (if r.Scenarios.Campaign.degraded then " degraded=true" else "");
    Fmt.pr "wrote %s@." path;
    write_metrics ~name:(Fmt.str "export_campaign_seed%d" seed) metrics
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Export a fault-injection detection-coverage matrix as CSV, \
          optionally journaled, resumable, retried and chaos-tested.")
    Term.(
      const run $ out_dir $ seed $ faults $ scenarios $ domains $ journal
      $ resume $ retries $ chaos $ metrics_arg)

let () =
  let doc = "Export traces, figures and violation tables as CSV." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "export" ~doc)
          [ figures_cmd; scenario_cmd; campaign_cmd ]))
