(** Priority queue of timestamped simulation events.

    A binary min-heap keyed by [(time, sequence)]. The sequence number is
    assigned at insertion, so events scheduled for the same instant fire in
    insertion order — this FIFO tie-break is what makes simulations
    deterministic and is relied upon throughout the engine.

    The heap is laid out as parallel arrays, so the steady-state
    pop-then-push pattern of a discrete-event loop ({!pop_min} an event,
    whose handler {!add}s its successors) allocates nothing: {!add} writes
    into preallocated slots (amortised) and {!pop_min}/{!min_time} return
    unboxed values. {!pop} remains as the option-returning interface. *)

type 'a t

exception Empty
(** Raised by {!min_time} and {!pop_min} on an empty heap. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val peak_size : 'a t -> int
(** High-water mark of {!length} over the heap's lifetime. *)

val add : 'a t -> time:Time_ns.t -> 'a -> unit
(** [add t ~time v] schedules [v] at [time]. O(log n), non-allocating
    (amortised). *)

val min_time : 'a t -> Time_ns.t
(** Timestamp of the earliest event. O(1), non-allocating. Raises {!Empty}
    if the heap is empty. *)

val min_seq : 'a t -> int
(** Sequence number of the earliest event (its tie-break key, see
    {!next_seq}). O(1), non-allocating. Raises {!Empty} if the heap is
    empty. *)

val next_seq : 'a t -> int
(** The sequence number the next {!add} will assign. Sequence numbers
    rise by one per {!add}, so an event [(time, seq)] fires before every
    event added later at the same [time]. *)

val take_seq : 'a t -> int
(** Consume and return the next sequence number without adding an
    event: the key an event added now would have had, for a caller that
    tracks such an event itself instead of scheduling it. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's value (its timestamp is
    {!min_time}, read it first). O(log n), non-allocating. Raises {!Empty}
    if the heap is empty. *)

val pop : 'a t -> (Time_ns.t * 'a) option
(** [pop t] removes and returns the earliest event, or [None] if empty.
    O(log n). Allocating convenience wrapper over {!min_time} +
    {!pop_min}. *)

val peek_time : 'a t -> Time_ns.t option
(** Timestamp of the earliest event without removing it. O(1). *)

val clear : 'a t -> unit

val drain : 'a t -> (Time_ns.t -> 'a -> unit) -> unit
(** [drain t f] pops every event in order, applying [f]. Events added by
    [f] itself are drained too. *)
