(** Deterministic, seeded infrastructure-fault plans for chaos testing
    the execution stack itself.

    {!Inject} perturbs the {e simulated} system's signals; this module
    perturbs the {e infrastructure} that runs the simulations — journal
    appends and the campaign server's connections — so the composite
    failure modes of [Supervise] + the scenario journal + the daemon are
    exercised on purpose instead of discovered in production. A plan is
    pure data (no closures, no hidden state): which faults to inject,
    each with a {!trigger} saying {e when}. The derivations
    ({!journal_fault}, {!server_fault}) turn the plan into the hooks the
    execution layers consult at their injection points.

    Determinism: a trigger fires as a pure function of
    [(plan seed, fault kind, opportunity index)]. [At n] fires on
    exactly the [n]-th opportunity; [Rate p] draws one uniform variate
    per opportunity from a {!Inject.Prng} child generator keyed on the
    kind and index, so the same plan torments the same run the same way
    every time. Every fault in the catalogue is {e recoverable}: a
    campaign under any chaos plan must produce output bit-for-bit
    identical to the chaos-free run (journal errors degrade durability
    without touching results; dropped connections are absorbed by the
    client reconnecting and resubmitting). *)

type trigger =
  | At of int  (** fire on exactly the [n]-th opportunity (1-based) *)
  | Rate of float
      (** fire with this probability per opportunity, drawn
          deterministically from the plan seed *)

type t = {
  seed : int;  (** seeds every [Rate] draw ({!Inject.Prng.derive}) *)
  journal_write : trigger option;
      (** the append's write fails mid-record; opportunity = append
          index within one writer *)
  journal_fsync : trigger option;
      (** the append's fsync fails; opportunity = append index *)
  accept : trigger option;
      (** the campaign server drops a client connection right after
          accepting it; opportunity = accept index within one server *)
  srv_read : trigger option;
      (** the server drops a client connection at a request read;
          opportunity = server read index *)
  srv_write : trigger option;
      (** the server drops a client connection instead of writing a
          response; opportunity = server write index *)
}

val none : t
(** The empty plan: injects nothing. *)

val is_empty : t -> bool

val fires : seed:int -> salt:int -> n:int -> trigger -> bool
(** [fires ~seed ~salt ~n tr] — whether trigger [tr] fires on the
    [n]-th opportunity of the fault kind salted [salt]. Exposed for
    tests; the hook derivations below are the intended consumers. *)

val journal_fault : t -> ([ `Write | `Fsync ] -> bool) option
(** The journal-fault hook for [Scenarios.Journal.create]: each append
    consults [`Write] once (advancing the hook's append counter) and
    [`Fsync] once. Stateful — derive one hook per writer. *)

val server_fault : t -> ([ `Accept | `Read | `Write ] -> bool) option
(** The connection-fault hook for the campaign server ([Serve.Server]):
    consulted at each accept, request read and response write; [true]
    means the server must drop that client's connection at that point
    (the client recovers by reconnecting and resubmitting — results
    already journaled are replayed, so the retry converges). Each fault
    point keeps its own opportunity counter. Stateful — derive one hook
    per server instance. *)

val parse : ?seed:int -> string -> (t, string) result
(** [parse ~seed spec] — the [--chaos SPEC] grammar: comma-separated
    terms, each [KIND@N] (fire on the [N]-th opportunity) or [KIND~P]
    (fire with probability [P] per opportunity). Kinds: [jwrite],
    [jfsync], [accept], [sread], [swrite]; each may appear at most once.
    The worker-process kinds of earlier builds ([hang], [crash],
    [torn], [corrupt], [slow], [spawn]) are rejected with an [Error]
    naming the kind, never silently dropped. *)

val to_string : t -> string
(** Canonical spec string of the plan (the seed is carried separately,
    exactly as on the CLI). [parse (to_string t)] is [t] up to the
    seed. *)

val conv_doc : string
(** Human-readable grammar summary for CLI [--chaos] flags. *)
