(** [experiments] — regenerate the thesis's tables and figures.

    {v
    experiments list            # list experiment ids
    experiments all             # run every experiment
    experiments run table_d_1 fig_5_2 ...
    experiments campaign --seed 42 --domains 4
    experiments campaign --inject nan:object_range@2..8 --scenarios 1,3
    experiments campaign --journal c.jnl --retries 2   # crash-safe run
    experiments campaign --journal c.jnl --resume      # finish a killed run
    v} *)

open Cmdliner

(* Shared flags of the supervised, journaled campaign path (also on
   [export campaign] and, for retries, [simulate]). *)

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Fsync-append every completed campaign cell to this crash-safe \
           journal; with $(b,--resume), replay it first and execute only \
           the missing cells. Without $(b,--resume) an existing journal is \
           truncated.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay the $(b,--journal) before running: completed cells are \
           restored bit-for-bit instead of re-simulated, so a campaign \
           killed mid-run finishes from where it stopped.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a failing cell up to $(docv) extra times (exponential \
           backoff with jitter, seeded by $(b,--seed)); a cell still \
           failing afterwards is quarantined and reported, instead of \
           aborting the campaign. Default 0: first failure aborts.")

let retry_policy ~seed retries =
  if retries > 0 then
    Some (Exec.Supervise.policy ~max_attempts:(retries + 1) ~seed ())
  else None

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          ("Inject a deterministic infrastructure-fault plan into the \
            campaign's own execution stack (its journal), seeded by \
            $(b,--seed). Every fault is recoverable: \
            the matrix and CSV are bit-for-bit identical to the \
            chaos-free run. " ^ Exec.Chaos.conv_doc))

let parse_chaos ~seed = function
  | None -> None
  | Some spec -> (
      match Exec.Chaos.parse ~seed spec with
      | Ok plan -> Some plan
      | Error e ->
          Fmt.epr "--chaos: %s@." e;
          exit 1)

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

let run_one (e : Core.Experiments.t) =
  Fmt.pr "==================================================================@.";
  Fmt.pr "%s — %s@." e.Core.Experiments.id e.Core.Experiments.title;
  Fmt.pr "==================================================================@.";
  e.Core.Experiments.run Fmt.stdout;
  Fmt.pr "@.@."

let list_cmd =
  let doc = "List experiment ids." in
  Cmd.v (Cmd.info "list" ~doc)
    (Term.(
       const (fun () ->
           List.iter
             (fun (e : Core.Experiments.t) ->
               Fmt.pr "%-14s %s@." e.Core.Experiments.id e.Core.Experiments.title)
             Core.Experiments.all)
       $ const ()))

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains"; "j" ] ~docv:"N"
        ~doc:
          "Pre-warm the scenario outcome cache on $(docv) domains before \
           rendering (default: the recommended domain count; 1 forces the \
           sequential path).")

let all_cmd =
  let doc = "Run every experiment (regenerates every table and figure)." in
  let run domains metrics =
    Core.Experiments.prewarm ?domains ();
    List.iter run_one Core.Experiments.all;
    write_metrics ~name:"experiments_all" metrics
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ domains_arg $ metrics_arg)

let run_cmd =
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let doc = "Run the named experiments." in
  let run domains ids metrics =
    (match domains with
    | Some d -> Core.Experiments.prewarm ~domains:d ()
    | None -> ());
    List.iter
      (fun id ->
        match Core.Experiments.get id with
        | Some e -> run_one e
        | None ->
            Fmt.epr "unknown experiment %s (try 'experiments list')@." id;
            exit 1)
      ids;
    write_metrics ~name:"experiments_run" metrics
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ domains_arg $ ids $ metrics_arg)

let campaign_cmd =
  let doc =
    "Run a fault-injection campaign: a fault × scenario grid against the \
     repaired baseline, reporting the detection-coverage matrix."
  in
  let spec_conv =
    Arg.conv
      ( (fun s ->
          match Inject.Spec.parse s with
          | Ok f -> Ok f
          | Error e -> Error (`Msg e)),
        Inject.Fault.pp )
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Campaign seed; same seed, bit-for-bit identical matrix.")
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
  let run domains seed faults scenarios journal resume retries chaos metrics
      =
    if resume && journal = None then begin
      Fmt.epr "--resume requires --journal PATH@.";
      exit 1
    end;
    let smoke = Scenarios.Campaign.smoke ~seed () in
    let grid =
      {
        Scenarios.Campaign.seed;
        faults = (if faults = [] then smoke.Scenarios.Campaign.faults else faults);
        grid_scenarios = List.map Scenarios.Defs.get scenarios;
      }
    in
    Fmt.pr "%a@." Scenarios.Campaign.pp
      (Scenarios.Campaign.run ?domains ?journal ~resume
         ?retry:(retry_policy ~seed retries)
         ?chaos:(parse_chaos ~seed chaos) grid);
    write_metrics ~name:(Fmt.str "campaign_seed%d" seed) metrics
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ domains_arg $ seed $ faults $ scenarios $ journal_arg
      $ resume_arg $ retries_arg $ chaos_arg $ metrics_arg)

let () =
  let doc = "Regenerate the tables and figures of the thesis evaluation." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "experiments" ~doc)
          [ list_cmd; all_cmd; run_cmd; campaign_cmd ]))
