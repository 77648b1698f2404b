(** The reference unit: fixed work that calls nothing of the repository,
    timed between a workload's measured units to read how fast the machine
    runs at that moment. A shared host changes its speed by up to twice
    within minutes; a workload's rate times the reference unit's duration —
    the work done in the time one reference unit takes — cancels that
    change, and moves only when the program's speed does. The unit does
    the kind of work that bounds the workload it calibrates: a neighbour
    that contends for memory slows a memory-bound fold far more than a
    compute-bound simulation. *)

(* 16 MiB: beyond a core's private caches, like the heaps the workloads
   walk. Bytes hold no pointers, so the collector never scans them, and
   the unit allocates nothing: its speed does not depend on the program's
   heap. *)
let arena = Bytes.make (16 lsl 20) '\000'

(** One unit, seconds: a register-only hash loop, how fast the core
    computes (as the simulation does), then, with [memory], random
    read-modify-writes over the arena, how fast it reaches memory (as the
    journal codec and the analytics fold do). About 9 ms and 20 ms on a
    2-core Xeon VM. *)
let unit ~memory =
  let t0 = Obs.Clock.now () in
  let h = ref 0 in
  for i = 1 to 3_000_000 do
    h := (!h lxor i) * 0x100000001b3 land max_int;
    if !h land 7 = 3 then h := !h lsr 3
  done;
  if memory then begin
    let mask = Bytes.length arena - 1 in
    let x = ref 0x2545f491 and acc = ref !h in
    for _ = 1 to 1_500_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let i = !x land mask in
      acc := !acc + Char.code (Bytes.unsafe_get arena i);
      Bytes.unsafe_set arena i (Char.unsafe_chr (!acc land 255))
    done;
    h := !acc
  end;
  ignore (Sys.opaque_identity !h);
  Obs.Clock.now () -. t0

(** [reference ~memory ~min_s] runs units until at least three have run
    and [min_s] seconds have passed, and returns their mean duration. *)
let reference ~memory ~min_s =
  let t0 = Obs.Clock.now () in
  let rec go n =
    ignore (unit ~memory);
    let elapsed = Obs.Clock.now () -. t0 in
    if n >= 3 && elapsed >= min_s then elapsed /. float_of_int n else go (n + 1)
  in
  go 1
