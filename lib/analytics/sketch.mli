(** Order-independent, bounded-memory streaming statistics.

    The analytics pipeline must produce byte-identical tables no matter
    how the producing campaign interleaved its appends: a journal written
    with [-j 8] holds the same records as the sequential run,
    in a different order. Every sketch here is therefore a {e commutative}
    aggregate — feeding the same multiset of observations in any order
    yields the same state — and every sketch is bounded: its live size
    depends on its capacity, never on how many observations streamed
    through it. *)

module Moments : sig
  (** Count / sum / min / max in O(1) space — the exact streaming
      aggregates, kept as a small immutable value. *)

  type t

  val empty : t
  (** No observations yet. *)

  val add : t -> float -> t
  (** Fold in one observation. *)

  val count : t -> int
  (** Observations folded in. *)

  val minimum : t -> float
  (** Smallest observation (0 when empty). *)

  val maximum : t -> float
  (** Largest observation (0 when empty). *)

  val mean : t -> float
  (** Arithmetic mean (0 when empty). *)
end

module Reservoir : sig
  (** A deterministic bottom-k sample for streaming percentiles.

      Classic reservoir sampling draws from a PRNG advanced per record,
      which makes the kept sample depend on arrival order. This one is a
      {e bottom-k sketch}: each observation gets a priority from a pure
      64-bit hash of its [tag] (the observation's stable identity — e.g.
      a cell's fault × scenario × seed × window key) and its value, and
      the reservoir keeps the [capacity] elements with the smallest
      priorities. The kept set is a pure function of the multiset of
      [(tag, value)] pairs — order-independent, duplicate-stable (an
      identical re-appended record collapses into the same element) and
      reproducible across runs and machines. *)

  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 64) bounds the elements retained; live size
      never exceeds it regardless of stream length. *)

  val add : t -> tag:string -> float -> unit
  (** Offer one observation. [tag] must identify the observation stably
      across runs — two different observations with the same tag and
      value are indistinguishable and collapse into one element. *)

  val size : t -> int
  (** Elements currently retained ([<= capacity]). *)

  val values : t -> float list
  (** Retained values, sorted ascending. *)

  val percentile : t -> float -> float
  (** [percentile t p] is the nearest-rank [p]th percentile (0–100) of
      the retained sample, 0 when empty. An estimate once the stream
      exceeded [capacity]; exact below it. *)
end
