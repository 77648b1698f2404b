(** Finite execution traces: a sequence of states sampled at a fixed period.

    The thesis's simulation states are 1 ms apart ("the time interval of
    one state"); [dt] carries that period so bounded-duration operators can
    convert seconds into numbers of states.

    Traces are stored {e columnar}: one typed column per state variable
    (unboxed [floatarray] for numeric signals, packed bytes for booleans,
    interned ids for symbolic enumerations) instead of one [State.t] map
    per tick. The flat, pointer-free columns cost the GC nothing to
    retain, [Marshal] ships them as near-memcpy blobs, and
    {!Rtmon.Incremental} reads one signal across all states
    without a map lookup per atom. The packed form is {e canonical} — a
    function of [dt] and the cell values alone — so structurally equal
    traces marshal to identical bytes regardless of how they were built.

    [get], [fold] and [iteri] materialize classic [State.t] rows on
    demand; all row-oriented consumers behave exactly as before. *)

type t

val make : dt:float -> State.t list -> t
(** @raise Invalid_argument when [dt <= 0]. *)

val of_array : dt:float -> State.t array -> t

val init : dt:float -> int -> (int -> State.t) -> t
(** [init ~dt n f] builds a trace of [n] states where state [i] is [f i]. *)

val length : t -> int
val dt : t -> float

val get : t -> int -> State.t
(** The state at index [i], materialized from the columns (a fresh
    [State.t] per call — hot per-state loops should read columns via
    {!column} instead). @raise Invalid_argument when out of bounds. *)

val time : t -> int -> float
(** Wall-clock time of state [i] (state 0 is at time 0). *)

val duration_to_states : dt:float -> float -> int
(** [duration_to_states ~dt d] — how many consecutive states span duration
    [d]: the smallest [k >= 1] with [k * dt >= d]. *)

val signal : t -> string -> (float * float) list
(** A float signal as [(time, value)] pairs.
    @raise State.Unbound when the variable is absent in any state. *)

val bool_signal : t -> string -> (float * bool) list

val fold : ('a -> State.t -> 'a) -> 'a -> t -> 'a
val iteri : (int -> State.t -> unit) -> t -> unit

(** {1 Columnar access}

    The typed column view behind the monitor fast path. Treat the arrays
    as read-only: they {e are} the trace. *)

type col =
  | FCol of floatarray  (** every present cell is [Value.Float] *)
  | ICol of int array  (** every present cell is [Value.Int] *)
  | BCol of Bytes.t  (** [Value.Bool] packed as 0/1 bytes *)
  | SCol of { values : Value.t array; ids : Bytes.t }
      (** [Value.Sym] cells interned: [values] is the symbol table in
          first-occurrence order (at most 256 entries), [ids] one table
          index per state *)
  | VCol of Value.t array
      (** mixed-type signal, stored exactly; cells are rebuilt canonically
          (a fresh block per cell, the two shared booleans, one string per
          symbol), so how a value was shared never shows in the bytes *)

val column : t -> string -> (col * Bytes.t option) option
(** [column tr v] — the packed column of variable [v] and its presence
    mask ([None] = bound in every state; [Some p] = bound exactly where
    [p] has byte 1, other cells are padding and must not be read).
    [None] when no state binds [v]. *)

val approx_bytes : t -> int
(** Rough in-memory footprint of the packed representation, in bytes —
    the accounting behind the [trace_store.bytes] counter. *)

(** {1 Incremental construction}

    The allocation-friendly way to record a simulation: append rows as
    they are computed — cells go straight into typed columns, so the run
    never retains one map per tick. Rows come either from a [State.t]
    ({!Builder.add}, one name lookup per cell) or from a slot-indexed
    typed buffer through column handles resolved once
    ({!Builder.add_slots}). Both paths build the same canonical columns. *)

module Builder : sig
  type b

  type column
  (** A handle on one variable's column. *)

  val create : ?hint:int -> dt:float -> unit -> b
  (** [hint] — expected number of states (the initial column capacity).
      @raise Invalid_argument when [dt <= 0]. *)

  val add : b -> State.t -> unit
  (** Append one state. Variables never seen before open a new column
      (absent in all earlier states); variables missing from this state
      are recorded as absent. *)

  val column : b -> string -> column
  (** The column of a variable, opened on first request. A column in
      which no cell is ever written is left out of the trace. *)

  val symbol : b -> string -> int
  (** The builder's id of a symbol, interned on first sight; the trace
      keeps one string per symbol. *)

  val add_slots :
    b ->
    column array ->
    tags:Bytes.t ->
    floats:floatarray ->
    ints:int array ->
    symbols:int array ->
    unit
  (** Append one row from a slot-indexed typed buffer (the simulation
      kernel's), slot [s] going to column [s]: by [tags.[s]], absent (['\000']), the float
      [floats.(s)] (['\001']), the int [ints.(s)] (['\002']), the bool
      [ints.(s) <> 0] (['\003']) or the symbol [symbols.(ints.(s))]
      (['\004']). Allocation-free when every column already holds its
      cell's kind. *)

  val length : b -> int
  (** Rows closed so far. *)

  val finish : b -> t
end
