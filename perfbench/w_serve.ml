(** [serve]: an in-process campaign daemon ([Serve.Server], its own
    domain) whose result store set-up fills with real campaigns that
    differ by window and scenario subset; the measured phase resubmits
    those specs over a closed loop of two client connections, so every
    request is a store hit — wire codec, request digest, server loop and
    store reads, no simulation. *)

open Scenarios

(* Relative: the run directory is the working directory, and a Unix
   socket path must stay short whatever the checkout's location. *)
let socket = "d.sock"
let state_dir = "serve-state"
let clients = 2

(* One measured unit of the closed loop, between two readings of the
   reference unit. *)
let interval_s = 1.0

type daemon = {
  domain : unit Domain.t;
  specs : Serve.Wire.spec array;
  exec : Layers.exec;  (** the store fill's pool figures *)
}

let rec wait_up n =
  match Serve.Client.stats ~socket with
  | Ok _ -> ()
  | Error e ->
      if n = 0 then failwith ("perfbench: serve daemon never came up: " ^ e);
      Unix.sleepf 0.01;
      wait_up (n - 1)

let stop d =
  (match Serve.Client.drain ~socket with
  | Ok _ -> ()
  | Error e -> failwith ("perfbench: serve drain failed: " ^ e));
  Domain.join d.domain

let submit spec =
  match Serve.Client.submit_and_wait ~socket spec with
  | Ok res -> res.Serve.Client.csv
  | Error e -> failwith ("perfbench: serve submit failed: " ^ e)

(* Start a daemon from cold caches and an empty state directory, and
   fill its result store by running every spec once. The exec figures
   are read as soon as the fill ends, before any other pool work. *)
let start ~seed ~domains () =
  Ctx.release ();
  Ctx.remove state_dir;
  let cfg = Serve.Server.default_config ~socket ~state_dir in
  let cfg = { cfg with Serve.Server.domains = Some domains } in
  let domain = Domain.spawn (fun () -> Serve.Server.run cfg) in
  wait_up 1000;
  let specs = Array.of_list (Gen.serve_specs ~seed) in
  Obs.Metrics.reset ();
  let (), fill_wall =
    Probe.time (fun () -> Array.iter (fun s -> ignore (submit s)) specs)
  in
  { domain; specs; exec = Layers.exec_sample ~wall:fill_wall ~domains }

(* The closed loop: [clients] connections, each resubmitting the specs
   round-robin until the deadline. Returns the round-trip times (s),
   the error count and the elapsed wall time. *)
let loop (r : Report.t) d ~expect seconds =
  let n = Array.length d.specs in
  let t0 = Obs.Clock.now () in
  let deadline = t0 +. seconds in
  let client k () =
    let rtts = ref [] and errors = ref 0 and mismatches = ref 0 and i = ref k in
    while Obs.Clock.now () < deadline do
      let spec = d.specs.(!i mod n) in
      let t = Obs.Clock.now () in
      (match
         Probe.span "serve.rtt" (fun () -> Serve.Client.submit_and_wait ~socket spec)
       with
      | Ok res ->
          rtts := (Obs.Clock.now () -. t) :: !rtts;
          if res.Serve.Client.csv <> expect.(!i mod n) then incr mismatches
      | Error _ -> incr errors);
      i := !i + clients
    done;
    (!rtts, !errors, !mismatches)
  in
  (* Client threads share this domain: the daemon's own domains are the
     only other mutators, so stop-the-world collections stay cheap on a
     machine with few cores. *)
  let results =
    List.map
      (fun k ->
        let res = ref ([], 0, 0) in
        (Thread.create (fun () -> res := client k ()) (), res))
      (List.init clients Fun.id)
    |> List.map (fun (t, res) ->
           Thread.join t;
           !res)
  in
  let wall = Obs.Clock.now () -. t0 in
  let rtts = List.concat_map (fun (l, _, _) -> l) results in
  let errors = List.fold_left (fun acc (_, e, _) -> acc + e) 0 results in
  let mismatches = List.fold_left (fun acc (_, _, m) -> acc + m) 0 results in
  r.Report.attempted <- r.Report.attempted + List.length rtts + errors;
  r.Report.failed <- r.Report.failed + errors;
  Report.check r "every reply CSV = the batch campaign CSV" (mismatches = 0);
  (rtts, wall)

let store_hits = Obs.Metrics.counter "serve.store_hits"

let run (ctx : Ctx.t) (r : Report.t) =
  let d =
    Ctx.setup ~teardown:stop r (start ~seed:ctx.Ctx.seed ~domains:ctx.Ctx.domains)
  in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      (* the batch answer for every spec: [Campaign.run], no daemon *)
      let expect =
        Array.map
          (fun (spec : Serve.Wire.spec) ->
            Export.campaign_csv
              (Campaign.run ~domains:1 ?window:spec.Serve.Wire.window
                 (Gen.grid_of_spec spec)))
          d.specs
      in
      Array.iteri
        (fun i spec ->
          Report.check r "store-filling reply CSV = the batch campaign CSV"
            (submit spec = expect.(i)))
        d.specs;
      let hits0 = Obs.Metrics.value store_hits in
      if not ctx.Ctx.trace then begin
        (* The daemon keeps the caches set-up filled, as a resident daemon
           does: serving speed depends on the live heap (README). *)
        Report.named r "loop_heap_mb"
          (float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6)
          "MB";
        (* The loop runs in intervals, with the reference unit read
           between them; each interval's round-trip times are kept
           unboxed, so the samples do not grow the heap the loop's
           collections walk. *)
        let intervals = ref [] in
        let m =
          Ctx.measure_calibrated ~memory:true ctx.Ctx.seconds (fun () ->
              let rtts, wall = loop r d ~expect interval_s in
              intervals := Float.Array.of_list rtts :: !intervals;
              (float_of_int (List.length rtts), wall))
        in
        let rtts = List.concat_map Float.Array.to_list !intervals in
        let count = List.length rtts in
        Report.check r "every request was a store hit"
          (Obs.Metrics.value store_hits - hits0 = count);
        let p50 = Probe.quantile 0.5 rtts *. 1e3 in
        Ctx.report_calibrated r m ~rate_name:"requests_per_s" ~rate_unit:"requests/s";
        Report.named r "rtt_p50_ms" p50 "ms";
        (* a percentile needs at least 10 samples beyond it *)
        if count >= 1000 then
          Report.named r "rtt_p99_ms" (Probe.quantile 0.99 rtts *. 1e3) "ms";
        Report.named r "requests" (float_of_int count) "count";
        Report.counter_int r "specs" (Array.length d.specs);
        Report.counter r "replies.md5"
          (Digest.to_hex (Digest.string (String.concat "" (Array.to_list expect))))
      end
      else begin
        Layers.exec_metrics r d.exec;
        (* The specs over both scenarios, one per window, hold every
           simulation and classification the fill runs: the pipeline runs
           them in the fill's order, so the later windows share the first
           one's traces as the fill does. *)
        let unions =
          List.filter
            (fun i -> List.length d.specs.(i).Serve.Wire.scenarios = 2)
            (List.init (Array.length d.specs) Fun.id)
        in
        let union = Gen.grid_of_spec d.specs.(List.hd unions) in
        let windows =
          List.map (fun i -> (Option.get d.specs.(i).Serve.Wire.window, expect.(i))) unions
        in
        Probe.reset ();
        let cells, _ = Layers.pipeline r ~journal:"traced.jnl" ~windows union in
        Layers.read_side r ~journal:"traced.jnl" ~window:(fst (List.hd windows)) union
          (List.hd cells);
        Layers.wire_metrics r (Array.to_list d.specs) (Array.to_list expect);
        let per_request () =
          let rtts, wall = loop r d ~expect (ctx.Ctx.seconds /. 4.) in
          wall /. float_of_int (max 1 (List.length rtts))
        in
        Report.layer r "trace.overhead_ratio"
          (Layers.overhead ~pairs:2 per_request per_request)
          "ratio"
      end)
