(** What one workload run produces: output checks, operation counts, the
    metrics by name and unit, and the deterministic work counters. *)

type metric = { name : string; value : float; unit : string }

type t = {
  mutable failures : string list;  (** failed output checks, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable end_to_end : metric list;  (** gated, reported with [--trace 0] *)
  mutable per_layer : metric list;  (** reported with [--trace 1] *)
  mutable named : metric list;
      (** the workload's own user-facing metrics by their documented
          names, printed for the reader *)
  mutable counters : (string * string) list;
      (** deterministic work counters: equal across runs of one seed *)
}

let create () =
  {
    failures = [];
    attempted = 0;
    failed = 0;
    end_to_end = [];
    per_layer = [];
    named = [];
    counters = [];
  }

let check r what ok =
  if not ok then begin
    r.failures <- what :: r.failures;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let metric name value unit = { name; value; unit }
let e2e r name value unit = r.end_to_end <- r.end_to_end @ [ metric name value unit ]
let layer r name value unit = r.per_layer <- r.per_layer @ [ metric name value unit ]
let named r name value unit = r.named <- r.named @ [ metric name value unit ]
let counter r name v = r.counters <- r.counters @ [ (name, v) ]
let counter_int r name n = counter r name (string_of_int n)

(* Float counters are rendered exactly (hex), so equality is exact. *)
let counter_float r name x = counter r name (Printf.sprintf "%h" x)
