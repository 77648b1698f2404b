(** Chaos plans: the [--chaos] grammar, trigger determinism, and the
    hook derivations the execution layers consult at their injection
    points. The end-to-end behaviour of the injected faults lives in
    [test_journal] (journal faults) and [test_serve] (server faults);
    this suite pins the plan algebra itself. *)

let plan spec =
  match Exec.Chaos.parse ~seed:7 spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse %S: %s" spec e

let test_parse_canonical_round_trip () =
  List.iter
    (fun spec ->
      let p = plan spec in
      Alcotest.(check string) (spec ^ ": canonical form") spec
        (Exec.Chaos.to_string p);
      match Exec.Chaos.parse ~seed:7 (Exec.Chaos.to_string p) with
      | Ok q ->
          Alcotest.(check bool) (spec ^ ": to_string round-trips") true (p = q)
      | Error e -> Alcotest.failf "re-parse %S: %s" spec e)
    [
      "jwrite@3";
      "jwrite@3,jfsync@5";
      "jfsync~0.25";
      "accept@1,sread@2,swrite@3";
      "sread~0.25";
      "jwrite@2,accept~0.1,swrite@9";
    ]

let test_parse_tolerates_whitespace () =
  Alcotest.(check bool) "terms are trimmed" true
    (plan " jwrite@2 , accept@4 " = plan "jwrite@2,accept@4")

let test_parse_errors () =
  List.iter
    (fun (spec, needle) ->
      match Exec.Chaos.parse spec with
      | Ok _ -> Alcotest.failf "%S must not parse" spec
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error mentions %S (got %S)" spec needle e)
            true
            (Str.string_match (Str.regexp (".*" ^ Str.quote needle)) e 0))
    [
      ("", "empty");
      ("jwrite", "KIND@N");
      ("jwrite@0", "positive");
      ("jwrite~1.5", "[0, 1]");
      ("jwrite@1:3", "positive");
      ("bogus@1", "unknown");
      ("jwrite@1,jwrite@2", "duplicate");
      ("accept@1,accept@2", "duplicate");
      ("jwrite@1~0.5", "at most one");
      (* The worker-process kinds are rejected by name, never dropped —
         also when they ride along with a valid term. *)
      ("hang@2", "\"hang\"");
      ("crash@4", "\"crash\"");
      ("torn@6", "\"torn\"");
      ("corrupt~0.5", "\"corrupt\"");
      ("slow@3:0.5", "\"slow\"");
      ("spawn@1", "\"spawn\"");
      ("jwrite@3,hang@2", "\"hang\"");
    ]

let test_fires_determinism () =
  (* [At n] fires on exactly the n-th opportunity. *)
  List.iter
    (fun n ->
      Alcotest.(check bool) "At fires on its index" true
        (Exec.Chaos.fires ~seed:1 ~salt:3 ~n (Exec.Chaos.At n));
      Alcotest.(check bool) "At silent elsewhere" false
        (Exec.Chaos.fires ~seed:1 ~salt:3 ~n:(n + 1) (Exec.Chaos.At n)))
    [ 1; 2; 5; 100 ];
  (* [Rate p] is a pure function of (seed, salt, n): same inputs, same
     draw — never a function of how many draws came before. *)
  let draw seed salt n =
    Exec.Chaos.fires ~seed ~salt ~n (Exec.Chaos.Rate 0.5)
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) "Rate deterministic" (draw 42 1 n) (draw 42 1 n))
    (List.init 20 (fun i -> i + 1));
  List.iter
    (fun n ->
      Alcotest.(check bool) "Rate 0. never fires" false
        (Exec.Chaos.fires ~seed:42 ~salt:1 ~n (Exec.Chaos.Rate 0.));
      Alcotest.(check bool) "Rate 1. always fires" true
        (Exec.Chaos.fires ~seed:42 ~salt:1 ~n (Exec.Chaos.Rate 1.)))
    (List.init 10 (fun i -> i + 1));
  (* Different seeds decorrelate: at least one of 64 draws differs. *)
  Alcotest.(check bool) "seed changes the draws" true
    (List.exists
       (fun n -> draw 1 1 n <> draw 2 1 n)
       (List.init 64 (fun i -> i + 1)));
  (* Different salts decorrelate two kinds sharing a seed. *)
  Alcotest.(check bool) "salt changes the draws" true
    (List.exists
       (fun n -> draw 42 1 n <> draw 42 2 n)
       (List.init 64 (fun i -> i + 1)))

let test_is_empty () =
  Alcotest.(check bool) "none is empty" true
    (Exec.Chaos.is_empty Exec.Chaos.none);
  Alcotest.(check bool) "seed alone keeps a plan empty" true
    (Exec.Chaos.is_empty { Exec.Chaos.none with Exec.Chaos.seed = 9 });
  Alcotest.(check bool) "a journal fault makes it non-empty" false
    (Exec.Chaos.is_empty (plan "jwrite@1"));
  Alcotest.(check bool) "a server fault makes it non-empty" false
    (Exec.Chaos.is_empty (plan "accept@1"))

let test_journal_hook () =
  Alcotest.(check bool) "server-only plan derives no journal hook" true
    (Exec.Chaos.journal_fault (plan "accept@1") = None);
  let p = plan "jwrite@2,jfsync@3" in
  (* The journal hook is stateful: [`Write] advances the append index,
     [`Fsync] reads the same index — one hook per writer. *)
  let j = Option.get (Exec.Chaos.journal_fault p) in
  Alcotest.(check bool) "append 1: write clean" false (j `Write);
  Alcotest.(check bool) "append 1: fsync clean" false (j `Fsync);
  Alcotest.(check bool) "append 2: write fails" true (j `Write);
  Alcotest.(check bool) "append 2: fsync clean" false (j `Fsync);
  Alcotest.(check bool) "append 3: write clean" false (j `Write);
  Alcotest.(check bool) "append 3: fsync fails" true (j `Fsync);
  (* A freshly derived hook starts its append count over. *)
  Alcotest.(check bool) "fresh derivation restarts the count" false
    (Option.get (Exec.Chaos.journal_fault p) `Write)

let test_server_fault_hook () =
  Alcotest.(check bool) "journal-only plan derives no server hook" true
    (Exec.Chaos.server_fault (plan "jwrite@1") = None);
  let hook = Option.get (Exec.Chaos.server_fault (plan "accept@2,swrite@1")) in
  (* Each fault point keeps its own opportunity counter: interleaved
     reads and writes must not advance the accept count. *)
  Alcotest.(check bool) "accept 1 survives" false (hook `Accept);
  Alcotest.(check bool) "reads never fault without a sread term" false
    (hook `Read);
  Alcotest.(check bool) "first write drops" true (hook `Write);
  Alcotest.(check bool) "accept 2 drops" true (hook `Accept);
  Alcotest.(check bool) "accept 3 survives" false (hook `Accept);
  (* A fresh derivation (a restarted server) starts its counters over. *)
  let fresh = Option.get (Exec.Chaos.server_fault (plan "accept@2,swrite@1")) in
  Alcotest.(check bool) "fresh derivation restarts the counters" false
    (fresh `Accept)

let () =
  Alcotest.run "chaos"
    [
      ( "spec",
        [
          Alcotest.test_case "parse / to_string round-trip" `Quick
            test_parse_canonical_round_trip;
          Alcotest.test_case "whitespace tolerated" `Quick
            test_parse_tolerates_whitespace;
          Alcotest.test_case "malformed specs rejected" `Quick test_parse_errors;
          Alcotest.test_case "is_empty" `Quick test_is_empty;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "At exact, Rate seeded and pure" `Quick
            test_fires_determinism;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "journal derivation" `Quick test_journal_hook;
          Alcotest.test_case "server fault derivation" `Quick
            test_server_fault_hook;
        ] );
    ]
