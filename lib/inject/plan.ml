(** An injection plan: a campaign seed plus the faults to interpose.

    The plan is pure, closure-free data — it marshals deterministically, so
    {!Scenarios.Runner} folds it straight into the outcome-cache digest: an
    identical (scenario, plan) pair is never re-simulated.

    Determinism contract: fault [i] draws from the private generator seeded
    [Prng.derive seed i]; every run builds fresh interposer state from the
    plan, so sequential and parallel executions of the same plan produce
    bit-for-bit identical traces. *)


type t = { seed : int; faults : Fault.t list }

let make ?(seed = 0) faults = { seed; faults }
let empty = { seed = 0; faults = [] }
let is_empty p = p.faults = []

(** [interposer ~dt plan] — a stateful per-run interposer, two-phase like
    a component: bound to a world's slots, it applies the faults in plan
    order to every freshly computed snapshot; each owns a derived PRNG. *)
let interposer ~dt plan b =
  let rts =
    Array.of_list
      (List.mapi
         (fun i f -> Fault.runtime ~seed:(Prng.derive plan.seed i) f b)
         plan.faults)
  in
  fun fr ->
    for k = 0 to Array.length rts - 1 do
      Fault.apply rts.(k) ~dt fr
    done

let pp ppf p =
  Fmt.pf ppf "@[<h>seed=%d %a@]" p.seed
    (Fmt.list ~sep:Fmt.sp Fault.pp)
    p.faults

let to_string p = Fmt.str "%a" pp p
