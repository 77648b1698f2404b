(** The slot-indexed tick state of the simulation kernel.

    {b Slots.} Every signal name is resolved to an integer slot once,
    while the world is assembled ({!Bind}); symbolic values are interned
    to integer ids the same way. A handle ['a slot] carries the type the
    binder expects to read ([float slot], [bool slot], [symbol slot],
    [int slot], or [Value.t slot] for any cell).

    {b Buffers.} The state of one tick is a buffer holding a tag per slot
    — absent, float, int, bool or symbol — an unboxed [floatarray] for
    float cells and an [int array] for int, bool (0/1) and symbol cells.
    The tag is the slot's presence bit and its type: a fault or an event
    may write a value of another type into any slot, and the tag records
    it.

    {b Frames.} A frame holds two buffers: [prev], the snapshot every
    component reads, and [next], the snapshot being computed. Each tick
    starts with [next] a copy of [prev] ({!begin_tick}), so unwritten
    variables hold their value, and ends by swapping them ({!swap}).
    Reads go to [prev] and writes to [next], so the one-state observation
    delay (§4.1.3) holds by construction. The typed reads and writes of
    float, bool and symbol cells allocate nothing. *)

open Tl

type binder
(** The slot and symbol tables of one world, filled while it is
    assembled. *)

type t
(** A frame: the two tick buffers of one run, and the index of the state
    being computed. *)

type 'a slot = private int
(** A resolved signal: its slot index. *)

type symbol = private int
(** An interned symbolic value, e.g. ['STOP']. *)

val binder : dt:float -> binder
(** Empty tables for a world whose states are [dt] seconds apart. *)

module Bind : sig
  (** Resolution of names, once, at bind time. Every function but
      {!lookup} allocates a slot for a name it has not seen. *)

  val float : binder -> string -> float slot
  val bool : binder -> string -> bool slot
  val sym : binder -> string -> symbol slot
  val int : binder -> string -> int slot
  val value : binder -> string -> Value.t slot

  val lookup : binder -> string -> Value.t slot option
  (** The slot of a name already resolved, if any. *)

  val symbol : binder -> string -> symbol
  (** The id of a symbolic value, interned on first sight. *)

  val all : binder -> (string * Value.t slot) list
  (** Every slot, in resolution order. *)

  val dt : binder -> float
  (** The world's state period, for steps to capture at bind time. *)
end

(** {1 Frames} *)

val create : binder -> t
(** A frame over every slot resolved so far, both buffers all absent, at
    tick 0. Resolve every slot first. *)

val tick : t -> int
(** The index of the state being computed. Its time is
    [float_of_int (tick fr) *. dt], computed exactly so by {!now}. *)

val now : t -> float

val begin_tick : t -> int -> unit
(** [begin_tick fr i] starts computing state [i]: [next] becomes a copy
    of [prev]. *)

val swap : t -> unit
(** Exchange [prev] and [next]: the state just computed becomes the one
    every component reads. *)

val clear_next : t -> unit
(** Mark every cell of [next] absent. *)

(** {1 Reads of the previous snapshot}

    The typed reads behave exactly like [State.float], [State.bool] and
    [State.sym] on the same snapshot: an int cell reads as a float, an
    absent cell raises [State.Unbound], and a cell of another type raises
    [Value.Type_error]. *)

val float : t -> float slot -> float
val bool : t -> bool slot -> bool
val sym : t -> symbol slot -> symbol

val int_or : t -> int slot -> int -> int
(** [int_or fr s d] — the int in [s], [d] if [s] holds another type.
    @raise State.Unbound when [s] is absent. *)

val value : t -> _ slot -> Value.t
(** The cell as a value (allocates). @raise State.Unbound when absent. *)

val floats : t -> float slot -> floatarray
(** [floats fr s] — the float store of [prev], after checking that [s]
    holds a number exactly as {!float} does (an int cell's value is
    copied into the store). Reading index [s] of the result is {!float}
    without a float crossing the call: a component that defines
    [let[@inline] float fr s = Float.Array.unsafe_get (Frame.floats fr s) (s :> int)]
    reads floats allocation-free even where this module's functions are
    not inlined across modules. *)

(** {1 Writes of the next snapshot} *)

val set_float : t -> float slot -> float -> unit
val set_bool : t -> bool slot -> bool -> unit
val set_sym : t -> symbol slot -> symbol -> unit
val set_int : t -> int slot -> int -> unit
val set_value : t -> _ slot -> Value.t -> unit

val set_floats : t -> float slot -> floatarray
(** [set_floats fr s] tags [s] as a float in [next] and returns the float
    store of [next], whose index [s] the caller then writes — the
    counterpart of {!floats} for {!set_float}. *)

val peek : t -> _ slot -> Value.t option
(** The cell of [next] as a value, [None] when absent. *)

(** {1 Cells}

    One slot's content copied out of [next] and back — the interposers'
    unit of work ({!Inject.Fault}), which must carry a value of any type
    without boxing it. *)

module Cell : sig
  type kind = Absent | Float | Int | Bool | Sym
  type t

  val make : unit -> t
  (** An absent cell. *)

  val of_value : binder -> Value.t -> t
  val kind : t -> kind

  val float : t -> float
  (** The payload of a [Float] cell. *)

  val int : t -> int
  (** The payload of an [Int], [Bool] (0/1) or [Sym] (id) cell. *)

  val set_float : t -> float -> unit
  (** [set_float c x] makes [c] the float [x]. *)

  val blit : src:t -> dst:t -> unit
end

val load : t -> _ slot -> Cell.t -> unit
(** Copy a cell of [next] out. *)

val store : t -> _ slot -> Cell.t -> unit
(** Copy a cell into [next] (an absent cell makes the slot absent). *)

(** {1 Recording} *)

type recorder

val recorder : t -> hint:int -> recorder
(** A trace builder with one column handle per slot; [hint] is the
    expected number of states. *)

val record : recorder -> t -> unit
(** Append [prev] as one trace row: each present slot is copied straight
    into its column. *)

val finish : recorder -> Trace.t
