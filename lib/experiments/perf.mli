(** Machine-readable performance records for [portals_repro bench].

    One {!record} per experiment id (T1–T4 wire tables, F1–F6 figures,
    L1 latency, B1 bandwidth, S1–S3 scaling, A1/A2 accounting and
    ablations, R1 reliability, C1 crash-restart), metered as a delta of
    {!Sim_engine.Scheduler.global_totals} around the experiment's run.

    The sim-side fields — [sim_events], [fibers], [sim_time_us] — are
    deterministic for a fixed seed: two runs of the same build must agree
    on them exactly. [wall_s], [events_per_sec] and [peak_heap_words]
    describe the host and vary run to run; regression gating applies a
    tolerance to [wall_s] only. *)

type record = {
  id : string;
  wall_s : float;  (** Wall-clock seconds for this experiment's run. *)
  sim_events : int;  (** Scheduler events the run processed. *)
  fibers : int;  (** Fibers the run spawned. *)
  sim_time_us : float;  (** Simulated time the run advanced through. *)
  events_per_sec : float;  (** [sim_events /. wall_s]; 0 for instant runs. *)
  peak_heap_words : int;
      (** GC [top_heap_words] after the run. Monotone across the process:
          peak heap so far, not a per-experiment figure. *)
}

val ids : string list
(** Every experiment id, in report order. *)

val meter : id:string -> (unit -> 'a) -> record
(** Meter one runner as a delta of the process-wide scheduler totals:
    best of three repeats (after a [Gc.compact] each), so host noise
    does not masquerade as a regression. Other experiment families
    (e.g. the benchmark matrix) build their records with this. *)

val all : ?quick:bool -> unit -> record list
(** Run and meter every experiment; each is run three times (after a
    [Gc.compact]) and the fastest repeat kept, so host-side noise does
    not masquerade as a regression. [quick] (default false) shrinks each
    experiment's parameters to smoke-test size. *)

val pp : Format.formatter -> record list -> unit

(** {1 JSON} *)

val to_json : record list -> string
(** [{"schema": "portals-bench/1", "records": [{...}, ...]}] *)

val of_json_string : string -> (record list, string) result

val write_json : path:string -> record list -> unit
val read_json : path:string -> (record list, string) result

(** {1 Regression gating} *)

type regression = {
  r_id : string;
  r_baseline : float;  (** Baseline wall seconds. *)
  r_current : float;  (** Current wall seconds. *)
  r_ratio : float;  (** baseline / current: the current run's relative speed. *)
}

val compare_baseline :
  baseline:record list ->
  current:record list ->
  tolerance_pct:float ->
  regression list
(** Ids whose current run is more than [tolerance_pct] percent slower
    than baseline, by wall time on the same work. Unlike events/sec,
    this does not read a cut in the event count as a slowdown. Ids
    missing from either side, records without a wall time, and records
    processing fewer than 1000 events (their wall time is timer noise)
    are skipped. Empty means the gate passes. *)

val pp_regressions : Format.formatter -> regression list -> unit
