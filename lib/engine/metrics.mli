(** Central metrics registry for the whole fabric.

    Subsystems register named instruments — counters, gauges, polled
    probes, summaries, and (x, y) time-series — carrying string labels
    such as [("proc", "1:0")] or [("reason", "no_match")]. Experiments and
    the CLI then read one uniform {!Snapshot} instead of reaching into
    per-module statistics records.

    Cost model: instruments are registered once at component setup;
    mutation is the bare arithmetic; probes are closures polled only by
    {!snapshot}, so the instrumented hot path pays nothing for them.
    Components that come in thousands — links, CPUs, network interfaces
    — register no instrument at all. Their owner registers one
    {!source} per group (a fabric for its nodes and hop links, a
    transport for its receive engines, an NI for its counters): a
    closure that {!snapshot} polls, emitting each member's gauges with
    labels built then. Set-up pays one table insertion per group, and a
    run that never takes a snapshot never builds a label.

    Registration is idempotent: asking for an instrument under an existing
    (name, labels) key returns the already-registered instrument.
    Re-registering a {!probe} rebinds the closure, and re-registering a
    {!source} id replaces the old source and its entries: a component
    recreated under the same identity (a fresh NI for the same rank, a
    second transport's receive engines) replaces its predecessor and does
    not keep it alive. Asking for a key that exists with a different
    instrument kind raises [Invalid_argument]. *)

type t

type labels = (string * string) list
(** Label sets are normalised: sorted by key, duplicate keys collapsed. *)

val create : ?detail:bool -> unit -> t
(** A fresh registry. [detail] (default [false]) additionally turns on
    time-series sampling — see {!set_detail}. *)

val detail : t -> bool

val set_detail : t -> bool -> unit
(** Time-series sampling ({!push}) is a separate, default-off detail
    level: every sample allocates a point, and some series sample once
    per message (event-queue depth, protocol windows), which is too
    expensive for large scaling runs that never read the curves.
    Counters, gauges, probes and summaries are unaffected. Deep-dive
    experiments that plot curves (the Fig. 5/6 worlds) enable it. *)

val normalize_labels : labels -> labels
val pp_labels : Format.formatter -> labels -> unit

(** {1 Instruments} *)

type counter
type gauge
type summary
type series

val counter : t -> ?labels:labels -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val probe : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** [probe t name f] registers a gauge whose value is [f ()] polled at
    {!snapshot} time. *)

type emit = string -> labels -> float -> unit
(** [emit name labels value] adds one gauge entry to the snapshot being
    taken. *)

val source : t -> string -> (emit -> unit) -> unit
(** [source t id poll] registers [poll] under [id]; every {!snapshot}
    calls it once, and each [emit] becomes a {!Snapshot.Gauge} entry,
    sorted in among the instruments. Registering an existing [id] again
    replaces its closure. Keys are unique in a snapshot: where an emitted
    key is also a registered instrument, the instrument's entry is kept;
    where two sources emit one key, the later-registered source's entry
    is kept, and within one source the first emission. Sources hold no
    values, so {!reset} leaves them alone. *)

val summary : t -> ?labels:labels -> string -> summary
val observe : summary -> float -> unit

val series : t -> ?labels:labels -> string -> series

val push : series -> x:float -> y:float -> unit
(** Record one point. No-op unless the registry's detail level is on
    ({!set_detail}). *)

val series_points : series -> (float * float) list
val series_length : series -> int

val reset : t -> unit
(** Zero every instrument in place (probes and sources are unaffected);
    registrations and handles stay valid. *)

(** {1 Snapshots} *)

module Snapshot : sig
  type value =
    | Counter of int
    | Gauge of float
    | Summary of {
        count : int;
        mean : float;
        min : float;
        max : float;
        stddev : float;
        total : float;
      }
    | Series of (float * float) list

  type entry = { name : string; labels : labels; value : value }

  type t = entry list
  (** Sorted by name, then labels. *)

  val find : ?labels:labels -> t -> string -> value option
  (** The value of the entry with this name and label set, if present. *)

  val find_exn : ?labels:labels -> t -> string -> value
  val filter : t -> string -> entry list
end

val snapshot : t -> Snapshot.t
(** Capture every instrument's current value; probes and sources are
    polled here. *)

val absorb : t -> ?labels:labels -> Snapshot.t -> unit
(** [absorb t ~labels snap] merges a snapshot into [t], prefixing every
    entry's labels with [labels]. Counters and summaries accumulate,
    gauges overwrite, series append. Used to aggregate per-world
    registries into one cross-configuration report. *)
