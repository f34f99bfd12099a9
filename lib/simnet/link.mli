(** A serialising transmission resource.

    Models the injection side of a network link (or any single-server
    pipeline stage such as a DMA engine or a memcpy unit): work items
    occupy the resource back-to-back, so a burst of messages serialises
    while idle periods are skipped.

    Two usage styles coexist:

    {ul
    {- {!occupy} — the seed interface. The caller computes the duration
       (e.g. from a {!Profile}) and schedules its own follow-up event at
       the returned completion time. Used by the per-node injection
       links, receive engines and kernel copy pipelines.}
    {- {!transmit} — the topology interface. The link carries its own
       [bandwidth] and propagation [latency]; concurrent flows FIFO-queue
       behind each other, queue depth and flow counts are tracked, and a
       [queue_limit] turns overload into congestion drops (fed back to
       the {!Fabric} drop accounting, and recovered from by
       [lib/reliability] exactly like wire loss). Used by the shared hop
       links a {!Topology} introduces.}} *)

type t

type congestion = {
  cong_depth : int;  (** Queue depth at the moment of the drop. *)
  cong_bytes : int;  (** Size of the refused transmission. *)
}
(** Passed to the hook installed with {!on_congestion}. *)

val create :
  ?name:string ->
  ?bandwidth:float ->
  ?latency:Sim_engine.Time_ns.t ->
  ?queue_limit:int ->
  Sim_engine.Scheduler.t ->
  t
(** [create sched] registers ["link.busy_us"] and ["link.utilization"]
    probes labelled [("link", name)] in the scheduler's metrics registry.

    [bandwidth] (bytes/s) and [latency] (propagation delay, default 0)
    are used by {!transmit}; [queue_limit] bounds the number of
    simultaneously outstanding transmissions (the one on the wire plus
    those queued behind it) before further traffic is dropped — [None]
    (default) queues without bound, i.e. pure backpressure.

    A link with a [bandwidth] (the topology hop links) also registers
    ["link.queue_depth"] (peak outstanding transmissions), ["link.flows"]
    (peak concurrent distinct flows), ["link.busy_ns"] and
    ["link.congestion_drops"] probes. The counts behind them are kept
    lazily: a transmission leaves the link's books at the first
    {!transmit} or {!queue_depth} after the scheduler has passed its
    completion, in scheduler (time, sequence) order, so they cost no
    scheduler event. *)

val occupy : t -> Sim_engine.Time_ns.t -> Sim_engine.Time_ns.t
(** [occupy t d] reserves the resource for duration [d] starting at the
    first instant it is free (now, or the end of previously queued work)
    and returns the absolute completion time. Non-blocking: callers
    schedule follow-up events at the returned time. *)

val transmit :
  t ->
  ?flow:int ->
  bytes:int ->
  unit ->
  [ `Accepted of Sim_engine.Time_ns.t | `Dropped ]
(** [transmit t ~flow ~bytes ()] offers a [bytes]-long store-and-forward
    transmission to the link. If accepted, it occupies the link for
    [bytes / bandwidth] behind everything already queued and the result
    is the absolute time the message has {e arrived at the far end}
    (completion plus [latency]); the caller schedules the next hop (or
    delivery) at that instant. [`Dropped] means the queue limit was hit:
    the message is lost here, as a congested store-and-forward switch
    with full buffers would lose it. [flow] identifies the (src, dst)
    stream for the concurrent-flow statistics.

    Raises [Invalid_argument] if the link has no [bandwidth]. *)

val on_congestion : t -> (congestion -> unit) -> unit
(** Install a hook run on every congestion drop (after the drop counter
    is bumped). The fabric uses it for drop accounting; tests and
    backpressure schemes can observe overload pointwise. At most one
    hook; installing replaces the previous one. *)

val name : t -> string

val free_at : t -> Sim_engine.Time_ns.t
(** The instant the resource next becomes free. *)

val busy_time : t -> Sim_engine.Time_ns.t
(** Total time the resource has been occupied (utilisation numerator). *)

val queue_depth : t -> int
(** Transmissions accepted by {!transmit} whose serialisation has not
    completed by the scheduler's present moment: one ending at the
    current instant counts as complete if a callback scheduled for its
    completion at {!transmit} time would already have run. *)

val peak_queue_depth : t -> int
(** High-water mark of {!queue_depth} over the run. *)

val peak_flows : t -> int
(** High-water mark of concurrent distinct flows. *)

val congestion_drops : t -> int
(** Transmissions refused because the queue limit was reached. *)
