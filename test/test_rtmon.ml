(** Tests for the incremental monitors: the central property is equivalence
    with the reference trace semantics on the full past-time fragment. *)

open Tl

let state bits vars = State.of_list (List.map2 (fun v x -> (v, Value.Bool x)) vars bits)

(* Reuse the same generators as test_tl (duplicated deliberately: the suites
   are independent executables). *)
let vars3 = [ "p"; "q"; "r" ]

let gen_formula =
  let open QCheck.Gen in
  let base = map (fun v -> Formula.bvar v) (oneofl vars3) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then base
         else
           frequency
             [
               (2, base);
               (1, map Formula.not_ (self (n - 1)));
               (1, map2 (fun a b -> Formula.And (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Formula.Or (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Formula.Iff (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map Formula.prev (self (n - 1)));
               (1, map Formula.once (self (n - 1)));
               (1, map Formula.hist (self (n - 1)));
               (1, map Formula.rose (self (n - 1)));
               ( 1,
                 map2
                   (fun k f -> Formula.prev_for (float_of_int (1 + (k mod 4))) f)
                   small_nat (self (n - 1)) );
               ( 1,
                 map2
                   (fun k f -> Formula.once_within (float_of_int (1 + (k mod 4))) f)
                   small_nat (self (n - 1)) );
             ])

let gen_trace =
  let open QCheck.Gen in
  let gen_state = map (fun bits -> state bits vars3) (list_repeat 3 bool) in
  map (fun ss -> Trace.make ~dt:1.0 ss) (list_size (int_range 1 12) gen_state)

let arb =
  QCheck.make
    ~print:(fun (f, tr) ->
      Fmt.str "%a over %d states" Formula.pp f (Trace.length tr))
    QCheck.Gen.(pair gen_formula gen_trace)

(** THE property: the pure incremental monitor computes exactly the
    reference semantics at every state. *)
let prop_incremental_equals_reference =
  QCheck.Test.make ~name:"incremental monitor ≡ reference semantics" ~count:500 arb
    (fun (phi, tr) ->
      let inc = Rtmon.Incremental.run_trace phi tr in
      let ref_ = Eval.series tr phi in
      inc = ref_)

(* Atoms of the Table 5.3 shapes — [Var ⋈ Const], [Abs Var ⋈ Const],
   [Var ⋈ Var], [Var = 'Sym'], [Bvar] — over a float column with NaN and
   signed zeros ([x]), an int column ([n]), a symbol column ([s]) and a
   boolean one ([p]). Every variable is present in state 0 and may be
   absent later, so each column is typed and partially present: the
   three-valued runner reads them all through its in-place readers. *)
let gen_numeric_formula =
  let open QCheck.Gen in
  let rel = oneofl [ Formula.lt; Formula.le; Formula.gt; Formula.ge; Formula.eq; Formula.ne ] in
  let const = map Term.float (oneofl [ -1.; 0.; 0.5; 2. ]) in
  let atom =
    oneof
      [
        map2 (fun r c -> r (Term.var "x") c) rel const;
        map2 (fun r c -> r c (Term.var "x")) rel const;
        map2 (fun r c -> r (Term.Abs (Term.var "x")) c) rel const;
        map (fun r -> r (Term.var "x") (Term.var "n")) rel;
        map2 (fun r c -> r (Term.var "n") c) rel const;
        map2 (fun r c -> r (Term.Abs (Term.var "n")) c) rel const;
        map (fun v -> Formula.var_is "s" v) (oneofl [ "A"; "B"; "Z" ]);
        map (fun v -> Formula.ne (Term.var "s") (Term.sym v)) (oneofl [ "A"; "Z" ]);
        return (Formula.bvar "p");
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then atom
         else
           frequency
             [
               (3, atom);
               (1, map Formula.not_ (self (n - 1)));
               (1, map2 (fun a b -> Formula.And (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Formula.Or (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map Formula.prev (self (n - 1)));
               (1, map Formula.once (self (n - 1)));
               (1, map Formula.hist (self (n - 1)));
               (1, map (fun f -> Formula.prev_for 2. f) (self (n - 1)));
             ])

let gen_numeric_trace =
  let open QCheck.Gen in
  let cells =
    [
      map (fun x -> ("x", Value.Float x)) (oneofl [ -1.; -0.; 0.; 0.5; 2.; Float.nan ]);
      map (fun k -> ("n", Value.Int k)) (int_range (-2) 2);
      map (fun v -> ("s", Value.Sym v)) (oneofl [ "A"; "B" ]);
      map (fun b -> ("p", Value.Bool b)) bool;
    ]
  in
  let full = flatten_l cells in
  let partial =
    flatten_l (List.map (fun c -> opt ~ratio:0.8 c) cells) |> map (List.filter_map Fun.id)
  in
  map2
    (fun s0 rest -> Trace.make ~dt:1.0 (List.map State.of_list (s0 :: rest)))
    full
    (list_size (int_range 0 14) partial)

(* The three-valued verdict by its definition, state by state. *)
let reference_status phi tr =
  let vars = Formula.vars phi in
  let m = ref (Rtmon.Incremental.create ~dt:(Trace.dt tr) phi) in
  Array.init (Trace.length tr) (fun i ->
      let st = Trace.get tr i in
      if Rtmon.Incremental.inhibited st vars then Rtmon.Incremental.Inhibited
      else begin
        let ok, m' = Rtmon.Incremental.step !m st in
        m := m';
        if ok then Rtmon.Incremental.Pass else Rtmon.Incremental.Fail
      end)

let prop_fast_path_equals_reference =
  QCheck.Test.make
    ~name:"in-place atom readers ≡ reference over NaN, int and partial columns"
    ~count:500
    (QCheck.make
       ~print:(fun (f, tr) -> Fmt.str "%a over %d states" Formula.pp f (Trace.length tr))
       QCheck.Gen.(pair gen_numeric_formula gen_numeric_trace))
    (fun (phi, tr) ->
      let fast = Rtmon.Incremental.run_trace_status phi tr in
      let expected = reference_status phi tr in
      let dt = Trace.dt tr in
      fast = expected
      && Rtmon.Incremental.fails ~dt fast
         = Rtmon.Violation.of_series ~dt
             (Array.map (fun s -> s <> Rtmon.Incremental.Fail) expected)
      && Rtmon.Incremental.inhibitions ~dt fast
         = Rtmon.Violation.of_series ~dt
             (Array.map (fun s -> s <> Rtmon.Incremental.Inhibited) expected))

(** Monitors never mutate their input: stepping the same monitor twice with
    the same state yields the same result. *)
let prop_purity =
  QCheck.Test.make ~name:"monitor step is pure" ~count:200 arb (fun (phi, tr) ->
      let m0 = Rtmon.Incremental.create ~dt:1.0 phi in
      let s = Trace.get tr 0 in
      let r1, m1 = Rtmon.Incremental.step m0 s in
      let r2, m2 = Rtmon.Incremental.step m0 s in
      r1 = r2 && Rtmon.Incremental.mem m1 = Rtmon.Incremental.mem m2)

let test_rejects_future () =
  Alcotest.check_raises "eventually rejected"
    (Rtmon.Incremental.Not_monitorable
       "formula contains future operators: ♦p")
    (fun () ->
      ignore (Rtmon.Incremental.create ~dt:1.0 (Formula.eventually (Formula.bvar "p"))))

let test_invariant_stripping () =
  (* Monitoring P ⇒ Q checks P → Q state by state. *)
  let phi = Formula.entails (Formula.bvar "p") (Formula.bvar "q") in
  let tr =
    Trace.make ~dt:1.0
      [
        state [ true; true; false ] vars3;
        state [ true; false; false ] vars3;
        state [ false; false; false ] vars3;
      ]
  in
  Alcotest.(check (list bool)) "per-state" [ true; false; true ]
    (Array.to_list (Rtmon.Incremental.run_trace phi tr))

(* ------------------------------------------------------------------ *)
(* Violations                                                           *)

let test_violation_intervals () =
  let ok = [| true; false; false; true; false; true |] in
  let ivs = Rtmon.Violation.of_series ~dt:0.001 ok in
  Alcotest.(check int) "two intervals" 2 (List.length ivs);
  let first = List.hd ivs in
  Alcotest.(check int) "start" 1 first.Rtmon.Violation.start_index;
  Alcotest.(check int) "length" 2 first.Rtmon.Violation.length;
  Alcotest.(check (float 1e-9)) "duration" 0.002 first.Rtmon.Violation.duration;
  Alcotest.(check (float 1e-9)) "total" 0.003 (Rtmon.Violation.total_duration ivs)

let test_violation_all_ok () =
  Alcotest.(check int) "no intervals" 0
    (List.length (Rtmon.Violation.of_series ~dt:1.0 [| true; true |]))

let test_overlap_window () =
  let iv start dur =
    {
      Rtmon.Violation.start_index = 0;
      length = 1;
      start_time = start;
      duration = dur;
    }
  in
  Alcotest.(check bool) "within window" true
    (Rtmon.Violation.overlap_within ~window:0.05 (iv 1.0 0.01) (iv 1.04 0.01));
  Alcotest.(check bool) "outside window" false
    (Rtmon.Violation.overlap_within ~window:0.05 (iv 1.0 0.01) (iv 1.2 0.01))

(* ------------------------------------------------------------------ *)
(* Hit / false positive / false negative classification                 *)

let iv start dur =
  { Rtmon.Violation.start_index = 0; length = 1; start_time = start; duration = dur }

let test_classification () =
  let r =
    Rtmon.Report.classify ~window:0.05
      ~goal:("G", "Vehicle", [ iv 1.0 0.01; iv 5.0 0.01 ])
      ~subgoals:
        [ ("G-A", "Arbiter", [ iv 1.01 0.01 ]); ("G-B", "CA", [ iv 9.0 0.01 ]) ]
      ()
  in
  Alcotest.(check int) "one hit" 1 r.Rtmon.Report.hits;
  Alcotest.(check int) "one false negative" 1 r.Rtmon.Report.false_negatives;
  Alcotest.(check int) "one false positive" 1 r.Rtmon.Report.false_positives

let test_classification_empty () =
  let r =
    Rtmon.Report.classify ~window:0.05 ~goal:("G", "V", []) ~subgoals:[] ()
  in
  Alcotest.(check int) "no hits" 0 r.Rtmon.Report.hits;
  Alcotest.(check int) "no FN" 0 r.Rtmon.Report.false_negatives;
  Alcotest.(check int) "no FP" 0 r.Rtmon.Report.false_positives

let prop_classification_conservation =
  (* Every goal violation is a hit or a false negative; every subgoal
     violation is a hit or a false positive. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 6) (map (fun t -> iv (float_of_int t) 0.01) (int_range 0 20)))
        (list_size (int_range 0 6) (map (fun t -> iv (float_of_int t) 0.01) (int_range 0 20))))
  in
  QCheck.Test.make ~name:"classification partitions violations" ~count:200
    (QCheck.make gen) (fun (givs, sivs) ->
      let r =
        Rtmon.Report.classify ~window:0.5 ~goal:("G", "V", givs)
          ~subgoals:[ ("S", "A", sivs) ]
          ()
      in
      let goal_hits =
        List.length
          (List.filter
             (fun (e : Rtmon.Report.entry) ->
               e.Rtmon.Report.goal_name = "G" && e.Rtmon.Report.outcome = Rtmon.Report.Hit)
             r.Rtmon.Report.entries)
      in
      goal_hits + r.Rtmon.Report.false_negatives = List.length givs
      && List.length r.Rtmon.Report.entries = List.length givs + List.length sivs)

let () =
  Alcotest.run "rtmon"
    [
      ( "incremental",
        [
          QCheck_alcotest.to_alcotest prop_incremental_equals_reference;
          QCheck_alcotest.to_alcotest prop_fast_path_equals_reference;
          QCheck_alcotest.to_alcotest prop_purity;
          Alcotest.test_case "rejects future operators" `Quick test_rejects_future;
          Alcotest.test_case "invariant stripping" `Quick test_invariant_stripping;
        ] );
      ( "violations",
        [
          Alcotest.test_case "interval extraction" `Quick test_violation_intervals;
          Alcotest.test_case "all satisfied" `Quick test_violation_all_ok;
          Alcotest.test_case "overlap window" `Quick test_overlap_window;
        ] );
      ( "classification",
        [
          Alcotest.test_case "hit/FN/FP" `Quick test_classification;
          Alcotest.test_case "empty" `Quick test_classification_empty;
          QCheck_alcotest.to_alcotest prop_classification_conservation;
        ] );
    ]
