(** The benchmark's own spans. [span name f] times [f] on the monotonic
    clock and counts the minor-heap words the calling domain allocated
    inside it. Spans live in memory — per-name aggregates, plus the first
    {!kept} raw spans of each name — and are read and
    written out once, at the end of a run. They wrap calls into the
    layers' public functions only: nothing inside [lib/] is instrumented
    for the benchmark.

    Recording is off unless {!enabled} is set, so the untraced passes run
    the same code with a single branch per call site. *)

type acc = {
  mutable count : int;
  mutable total_s : float;
  mutable words : float;
  mutable samples : float list;  (** durations, seconds, newest first *)
}

type span = {
  name : string;
  start_s : float;  (** since the process started measuring *)
  dur_s : float;
  words : float;  (** minor-heap words allocated inside *)
}

let table : (string, acc) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()
let enabled = ref false
let epoch = Obs.Clock.now ()

(* Raw spans kept per name; the aggregates count every span. *)
let kept = 2000
let raw : span list ref = ref []

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record (sp : span) =
  locked (fun () ->
      let a =
        match Hashtbl.find_opt table sp.name with
        | Some a -> a
        | None ->
            let a = { count = 0; total_s = 0.; words = 0.; samples = [] } in
            Hashtbl.replace table sp.name a;
            a
      in
      if a.count < kept then raw := sp :: !raw;
      a.count <- a.count + 1;
      a.total_s <- a.total_s +. sp.dur_s;
      a.words <- a.words +. sp.words;
      a.samples <- sp.dur_s :: a.samples)

let span name f =
  if not !enabled then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Obs.Clock.now () in
    let r = f () in
    let dur_s = Obs.Clock.now () -. t0 in
    let words = Gc.minor_words () -. w0 in
    record { name; start_s = t0 -. epoch; dur_s; words };
    r
  end

(** Write the kept raw spans, oldest first, as tab-separated
    [name start_s dur_us minor_words] lines. *)
let write path =
  let spans = locked (fun () -> List.rev !raw) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "name\tstart_s\tdur_us\tminor_words\n";
      List.iter
        (fun sp ->
          Printf.fprintf oc "%s\t%.6f\t%.3f\t%.0f\n" sp.name sp.start_s
            (sp.dur_s *. 1e6) sp.words)
        spans)

let get name =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some a -> a
      | None -> { count = 0; total_s = 0.; words = 0.; samples = [] })

(* Deterministic work counters (steps, states) recorded beside the
   spans. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 8

let add name n =
  locked (fun () ->
      let before = Option.value ~default:0 (Hashtbl.find_opt counts name) in
      Hashtbl.replace counts name (before + n))

let count name = locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt counts name))

(** Forget the aggregates and counts (the raw spans are kept for
    {!write}). *)
let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      Hashtbl.reset counts)

(** Forget everything, raw spans included: a new workload starts. *)
let forget () =
  locked (fun () ->
      Hashtbl.reset table;
      Hashtbl.reset counts;
      raw := [])

(** [traced f] runs [f] with recording on. *)
let traced f =
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := false) f

(** Median of a sample list (0 when empty). *)
let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank quantile [q] of a sample list (0 when empty). *)
let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(** Timing helper for untraced measurements: result and seconds. *)
let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)
