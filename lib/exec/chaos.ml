(** Deterministic, seeded infrastructure-fault plans (see chaos.mli).

    The plan is pure data: which infrastructure faults to inject, each
    with a trigger — a fixed opportunity index ([At n], 1-based) or a
    seeded per-opportunity probability ([Rate p]). The hook derivations
    below turn the plan into the callbacks the scenario journal and the
    campaign server consult at their injection points; everything a hook decides
    is a pure function of [(seed, fault kind, opportunity index)], so a
    chaos run is exactly as reproducible as the campaign it torments. *)

type trigger = At of int | Rate of float

type t = {
  seed : int;
  journal_write : trigger option;
  journal_fsync : trigger option;
  accept : trigger option;
  srv_read : trigger option;
  srv_write : trigger option;
}

let none =
  {
    seed = 0;
    journal_write = None;
    journal_fsync = None;
    accept = None;
    srv_read = None;
    srv_write = None;
  }

let is_empty t =
  t.journal_write = None && t.journal_fsync = None && t.accept = None
  && t.srv_read = None && t.srv_write = None

(* Every fault kind draws from its own child generator, and every
   opportunity from a grandchild: firing is a pure function of
   (seed, kind, n), never of how many draws other kinds consumed. *)
let fires ~seed ~salt ~n trigger =
  match trigger with
  | At k -> n = k
  | Rate p ->
      Inject.Prng.float
        (Inject.Prng.create (Inject.Prng.derive (Inject.Prng.derive seed salt) n))
      < p

(* Salts 1–5 and 8 are retired (the worker-process kinds); the live
   kinds keep their values, so a [Rate] plan draws as in earlier builds. *)
let salt_jwrite = 6
let salt_jfsync = 7
let salt_accept = 9
let salt_sread = 10
let salt_swrite = 11

let journal_fault t =
  match (t.journal_write, t.journal_fsync) with
  | None, None -> None
  | jw, jf ->
      (* One stateful hook per derivation (i.e. per journal writer): the
         append counter advances on the [`Write] check that starts every
         append, so [`Fsync] sees the same index. *)
      let appends = ref 0 in
      Some
        (function
        | `Write -> (
            incr appends;
            match jw with
            | Some tr -> fires ~seed:t.seed ~salt:salt_jwrite ~n:!appends tr
            | None -> false)
        | `Fsync -> (
            match jf with
            | Some tr -> fires ~seed:t.seed ~salt:salt_jfsync ~n:!appends tr
            | None -> false))

let server_fault t =
  match (t.accept, t.srv_read, t.srv_write) with
  | None, None, None -> None
  | accept, sread, swrite ->
      (* One stateful hook per derivation (i.e. per server instance):
         each fault point advances its own opportunity counter, so an
         [accept@2] plan drops exactly the second connection no matter
         how many reads and writes happen in between. *)
      let accepts = ref 0 and reads = ref 0 and writes = ref 0 in
      let check field salt counter =
        match field with
        | None -> false
        | Some tr ->
            incr counter;
            fires ~seed:t.seed ~salt ~n:!counter tr
      in
      Some
        (function
        | `Accept -> check accept salt_accept accepts
        | `Read -> check sread salt_sread reads
        | `Write -> check swrite salt_swrite writes)

(* ------------------------------------------------------------------ *)
(* Spec syntax                                                          *)

let conv_doc =
  "Comma-separated fault terms, each KIND@N (fire on the N-th \
   opportunity, 1-based) or KIND~P (fire with probability P per \
   opportunity, drawn deterministically from the seed). Journal kinds \
   (opportunity = append): jwrite (the append's write fails \
   mid-record), jfsync (the fsync fails). Server kinds (campaign \
   service fault points): accept (the accepted connection is dropped \
   immediately), sread (the connection is dropped at the next request \
   read), swrite (the connection is dropped instead of writing the next \
   response). Each kind may appear at most once. Example: \
   'jwrite@3,accept~0.1'."

let trigger_to_string = function
  | At n -> Printf.sprintf "@%d" n
  | Rate p -> Printf.sprintf "~%g" p

let to_string t =
  let opt kind = function
    | None -> []
    | Some tr -> [ kind ^ trigger_to_string tr ]
  in
  String.concat ","
    (opt "jwrite" t.journal_write
    @ opt "jfsync" t.journal_fsync
    @ opt "accept" t.accept
    @ opt "sread" t.srv_read
    @ opt "swrite" t.srv_write)

let parse_trigger ~term how s =
  match how with
  | `At -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (At n)
      | _ -> Error (Printf.sprintf "%s: expected a positive integer after '@'" term))
  | `Rate -> (
      match float_of_string_opt s with
      | Some p when p >= 0. && p <= 1. -> Ok (Rate p)
      | _ -> Error (Printf.sprintf "%s: expected a probability in [0, 1] after '~'" term))

let parse ?(seed = 0) spec =
  let ( let* ) = Result.bind in
  let parse_term acc term =
    let* t = acc in
    let* kind, how, rest =
      match (String.index_opt term '@', String.index_opt term '~') with
      | Some i, None ->
          Ok
            ( String.sub term 0 i,
              `At,
              String.sub term (i + 1) (String.length term - i - 1) )
      | None, Some i ->
          Ok
            ( String.sub term 0 i,
              `Rate,
              String.sub term (i + 1) (String.length term - i - 1) )
      | Some _, Some _ -> Error (term ^ ": at most one of '@' and '~'")
      | None, None -> Error (term ^ ": expected KIND@N or KIND~P")
    in
    let* () =
      match kind with
      | "hang" | "crash" | "torn" | "corrupt" | "slow" | "spawn" ->
          Error
            (Printf.sprintf
               "%s: fault kind %S is not supported: campaigns run \
                in-process, with no worker processes to fault"
               term kind)
      | _ -> Ok ()
    in
    let* trigger = parse_trigger ~term how rest in
    let once what field set =
      match field with
      | Some _ -> Error (Printf.sprintf "%s: duplicate %s term" term what)
      | None -> set ()
    in
    match kind with
    | "jwrite" ->
        once "jwrite" t.journal_write (fun () ->
            Ok { t with journal_write = Some trigger })
    | "jfsync" ->
        once "jfsync" t.journal_fsync (fun () ->
            Ok { t with journal_fsync = Some trigger })
    | "accept" ->
        once "accept" t.accept (fun () -> Ok { t with accept = Some trigger })
    | "sread" ->
        once "sread" t.srv_read (fun () ->
            Ok { t with srv_read = Some trigger })
    | "swrite" ->
        once "swrite" t.srv_write (fun () ->
            Ok { t with srv_write = Some trigger })
    | _ -> Error (Printf.sprintf "%s: unknown fault kind %S" term kind)
  in
  match String.trim spec with
  | "" -> Error "empty chaos spec"
  | spec ->
      List.fold_left parse_term
        (Ok { none with seed })
        (List.map String.trim (String.split_on_char ',' spec))
