(** [analyze] — mine campaign journals for system-level emergence
    patterns (see ANALYTICS.md).

    {v
    analyze cascade    --journal c.jnl --csv cascade.csv
    analyze trajectory --journal a.jnl --journal b.jnl --csv surface.csv
    analyze residual   --journal c.jnl --metrics analytics.json
    analyze all        --journal c.jnl --out-dir tables/
    v}

    Every table is a single constant-memory streaming pass over the
    journals, and every CSV is deterministic: analyzers are
    order-independent, so journals produced under any [-j]
    configuration of the campaign mine to byte-identical output. *)

open Cmdliner

let journals_arg =
  Arg.(
    non_empty
    & opt_all string []
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Campaign cell journal to mine (repeatable; the streams are \
           merged). Torn or corrupt tails are skipped and counted in \
           $(b,analytics.records_skipped).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH"
        ~doc:"Write the table to $(docv) instead of standard output.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Write an obs/1 JSON telemetry snapshot (analytics.* counters \
           and gauges included) to $(docv) before exiting.")

let ingest journals =
  let t = Analytics.Analyze.create () in
  List.iter (Analytics.Analyze.ingest t) journals;
  Analytics.Analyze.publish t;
  Fmt.epr "journals=%d records=%d skipped=%d@."
    (Analytics.Analyze.journals t)
    (Analytics.Analyze.records t)
    (Analytics.Analyze.skipped t);
  t

let emit ~name ~csv ~metrics contents =
  (match csv with
  | Some path ->
      Scenarios.Export.write_file path contents;
      Fmt.epr "wrote %s@." path
  | None -> print_string contents);
  Option.iter
    (fun path ->
      Obs.Export.write_file ~name path;
      Fmt.epr "wrote metrics snapshot %s@." path)
    metrics

let cascade_cmd =
  let run journals csv metrics =
    let t = ingest journals in
    let rows = Analytics.Analyze.cascade t in
    Fmt.epr "cascades=%d groups=%d@."
      (List.length (List.filter (fun r -> r.Analytics.Cascade.cascade) rows))
      (List.length rows);
    emit ~name:"analyze_cascade" ~csv ~metrics (Analytics.Analyze.cascade_csv t)
  in
  Cmd.v
    (Cmd.info "cascade"
       ~doc:
         "Detect cascades: faults whose injection flips two or more \
          distinct goal monitors across scenarios and windows.")
    Term.(const run $ journals_arg $ csv_arg $ metrics_arg)

let trajectory_cmd =
  let run journals csv metrics =
    let t = ingest journals in
    Fmt.epr "trajectory points=%d@." (List.length (Analytics.Analyze.trajectory t));
    emit ~name:"analyze_trajectory" ~csv ~metrics (Analytics.Analyze.trajectory_csv t)
  in
  Cmd.v
    (Cmd.info "trajectory"
       ~doc:
         "Per-goal hit/FP/FN/inhibited rate surfaces over the fault × \
          window × seed grid.")
    Term.(const run $ journals_arg $ csv_arg $ metrics_arg)

let residual_cmd =
  let run journals csv metrics =
    let t = ingest journals in
    Fmt.epr "residual fraction=%g (goal cells=%d, cell-level missed=%d)@."
      (Analytics.Analyze.residual_fraction t)
      (Analytics.Analyze.goal_cells t)
      (Analytics.Analyze.missed_cells t);
    emit ~name:"analyze_residual" ~csv ~metrics (Analytics.Analyze.residual_csv t)
  in
  Cmd.v
    (Cmd.info "residual"
       ~doc:
         "Aggregate residual emergence: the fraction of goal-level \
          violations no ICPA subgoal monitor anticipated, per goal and \
          in total (thesis Ch. 5, at campaign scale).")
    Term.(const run $ journals_arg $ csv_arg $ metrics_arg)

let all_cmd =
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "out-dir"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run journals out_dir metrics =
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let t = ingest journals in
    List.iter
      (fun (file, contents) ->
        let path = Filename.concat out_dir file in
        Scenarios.Export.write_file path contents;
        Fmt.epr "wrote %s@." path)
      [
        ("cascade.csv", Analytics.Analyze.cascade_csv t);
        ("trajectory.csv", Analytics.Analyze.trajectory_csv t);
        ("residual.csv", Analytics.Analyze.residual_csv t);
      ];
    Option.iter
      (fun path ->
        Obs.Export.write_file ~name:"analyze_all" path;
        Fmt.epr "wrote metrics snapshot %s@." path)
      metrics
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Write all three tables into a directory.")
    Term.(const run $ journals_arg $ out_dir $ metrics_arg)

let () =
  let doc = "Mine campaign journals for system-level emergence patterns." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "analyze" ~doc)
          [ cascade_cmd; trajectory_cmd; residual_cmd; all_cmd ]))
