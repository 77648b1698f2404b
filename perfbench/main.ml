(** The repository benchmark: one seeded workload per run, measured for a
    fixed time, its outputs checked, its metrics printed by name and unit.
    The last line of standard output is the JSON result. See README.md in
    this directory for the workloads, the metrics and the prediction
    table.

    {v
    perfbench --workload campaign|mine|serve|all --seed N --seconds S
              --trace 0|1 [--commit ID]
    v}

    Run it from the repository root: the run leaves its files under
    [perfbench/_run]. *)

let end_to_end = [ "throughput_per_ref"; "setup_s" ]

let per_layer =
  [
    "sim.us_per_step";
    "sim.minor_words_per_step";
    "sim.steps";
    "rtmon.us_per_state";
    "rtmon.minor_words_per_state";
    "rtmon.states";
    "classify.us_per_cell";
    "trace_store.hit_ratio";
    "trace_store.mb";
    "outcome_cache.hit_ratio";
    "pool.busy_ratio";
    "pool.task_wait_ms_p50";
    "journal.append_us_p50";
    "journal.bytes_per_record";
    "journal.fold_us_per_record";
    "journal.skipped_records";
    "analytics.observe_us_per_record";
    "analytics.render_ms";
    "analytics.footprint";
    "wire.encode_us";
    "wire.decode_us";
    "wire.reply_bytes";
    "memo.digest_us";
    "trace.overhead_ratio";
  ]

let workloads =
  [ ("campaign", W_campaign.run); ("mine", W_mine.run); ("serve", W_serve.run) ]

let usage () =
  prerr_endline
    "usage: perfbench --workload campaign|mine|serve|all --seed N --seconds S \
     --trace 0|1 [--commit ID]";
  exit 2

let run_dir = Filename.concat "perfbench" "_run"

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_string s = Printf.sprintf "%S" s

let json_metrics (ms : Report.metric list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : Report.metric) ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
             (json_string m.Report.name) m.Report.value (json_string m.Report.unit))
         ms)
  ^ "}"

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (json_metrics metrics)

let mkdir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* Deterministic counters must repeat exactly across runs of one seed on
   one build: the first correct run records them, every later run
   compares. *)
let check_counters (r : Report.t) ~key =
  let dir = Filename.concat run_dir "counters" in
  mkdir dir;
  let path = Filename.concat dir (key ^ ".txt") in
  let text =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s\n" k v) r.Report.counters)
  in
  if Sys.file_exists path then
    Report.check r ("deterministic counters repeat those of " ^ path)
      (In_channel.with_open_bin path In_channel.input_all = text)
  else if r.Report.failures = [] then
    Out_channel.with_open_bin path (fun oc -> output_string oc text)

let run_workload ~name ~(ctx : Ctx.t) f =
  let r = Report.create () in
  Probe.forget ();
  let here = Sys.getcwd () in
  let dir = Filename.concat run_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Ctx.remove dir;
  Sys.mkdir dir 0o755;
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir here;
      Ctx.remove dir)
    (fun () -> f ctx r);
  if ctx.Ctx.trace then begin
    let dir = Filename.concat run_dir "spans" in
    mkdir dir;
    Probe.write (Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" name ctx.Ctx.seed))
  end;
  Report.named r "peak_rss_mb" (Ctx.peak_rss_mb ()) "MB";
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  check_counters r
    ~key:
      (Printf.sprintf "%s-%s-seed%d-trace%d" exe name ctx.Ctx.seed
         (if ctx.Ctx.trace then 1 else 0));
  let reported = if ctx.Ctx.trace then r.Report.per_layer else r.Report.end_to_end in
  List.iter
    (fun m ->
      Report.check r ("metric " ^ m ^ " reported")
        (List.exists (fun (x : Report.metric) -> x.Report.name = m) reported))
    (if ctx.Ctx.trace then per_layer else end_to_end);
  List.iter
    (fun (m : Report.metric) ->
      Report.check r
        ("metric " ^ m.Report.name ^ " is finite")
        (Float.is_finite m.Report.value))
    reported;
  r

let print_report ~name (r : Report.t) =
  let line kind (m : Report.metric) =
    Printf.printf "perfbench %s %s %s %.6g %s\n" name kind m.Report.name m.Report.value
      m.Report.unit
  in
  List.iter (line "metric") r.Report.named;
  List.iter (line "end_to_end") r.Report.end_to_end;
  List.iter (line "per_layer") r.Report.per_layer;
  Printf.printf "perfbench %s failed_ratio %.6g (%d of %d operations)\n" name
    (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))
    r.Report.failed r.Report.attempted;
  List.iter
    (fun (k, v) -> Printf.printf "perfbench %s counter %s=%s\n" name k v)
    r.Report.counters

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let commit = ref "unknown" in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | "--commit" :: c :: rest ->
        commit := c;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    if !workload = "all" then workloads
    else List.filter (fun (n, _) -> n = !workload) workloads
  in
  match (selected, !seed, !seconds, !trace) with
  | [], _, _, _ | _, None, _, _ | _, _, None, _ | _, _, _, None -> usage ()
  | selected, Some seed, Some seconds, Some trace ->
      mkdir run_dir;
      let domains = max 1 (Domain.recommended_domain_count ()) in
      let ctx = { Ctx.seed; seconds; trace; domains } in
      Printf.printf
        "perfbench provenance: cores=%d ocaml=%s commit=%s seed=%d seconds=%g trace=%d\n%!"
        domains Sys.ocaml_version !commit seed seconds
        (if trace then 1 else 0);
      let reports =
        List.map
          (fun (name, f) ->
            let r = run_workload ~name ~ctx f in
            print_report ~name r;
            (name, r))
          selected
      in
      let failures = List.concat_map (fun (_, r) -> r.Report.failures) reports in
      let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 reports in
      let metrics =
        List.concat_map
          (fun (name, (r : Report.t)) ->
            let ms = if trace then r.Report.per_layer else r.Report.end_to_end in
            if List.length reports = 1 then ms
            else
              List.map
                (fun (m : Report.metric) ->
                  { m with Report.name = name ^ "." ^ m.Report.name })
                ms)
          reports
      in
      print_endline
        (json_result ~correct:(failures = [])
           ~attempted:(sum (fun r -> r.Report.attempted))
           ~failed:(sum (fun r -> r.Report.failed))
           metrics);
      if failures <> [] then exit 1
