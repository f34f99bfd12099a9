(* Shared vocabulary of the three workloads. *)

open Sim_engine

(* What one round of a workload leaves behind, checked after quiescence.
   [msgs] counts completed workload messages (halo deliveries, MPI
   messages, RMA operations); [attempted]/[failed] count the correctness
   checks. The last three fields are the sim fingerprint: they are a pure
   function of the seed and must not move with the host or with a
   simulator-only speed-up. *)
type outcome = {
  msgs : int;
  attempted : int;
  failed : int;
  sim_events : int;
  sim_time_us : float;
  digest : int;
}

(* A world's shape, enough to rebuild an empty copy of it for the layer
   replays of the traced run. *)
type shape = {
  nodes : int;
  topology : Simnet.Topology.kind;
  transport : Runtime.transport_kind;
}

module type WORKLOAD = sig
  type t

  val name : string

  val scenario : (string * string) list
  (** Nodes, topology, sizes and loss: with the seed, enough to rerun. *)

  val crc : bool
  (** Whether frames carry CRC-32C trailers (the lossy workload). *)

  val uses_ni : bool
  (** Whether the traffic goes through Portals NIs and the Wire codec. *)

  type inputs

  val inputs : seed:int -> inputs
  (** Everything drawn from the seed: payloads and operation lists. Made
      once per process, outside every timed phase. *)

  val setup : inputs -> lossless:bool -> t
  (** Build the worlds, endpoints and windows: the timed set-up.
      [lossless] turns off any injected loss (the shim's reference). *)

  val run : t -> unit
  (** Inject the traffic and drive every world to quiescence. *)

  val check : t -> outcome

  val worlds : t -> (Runtime.world * shape) list

  val registries : t -> Metrics.t list
  (** Registries whose [ni.*], [rel.*], [rma.*] and [sched.*]
      instruments the traced run reads. *)

  val mpi_endpoints : t -> Mpi.t list
  (** MPI endpoints whose counters the traced run reads. *)
end

(* Every world quiesces within a few hundred milliseconds of simulated
   time. A round still running at this bound is stuck (a lost message, a
   lock that never frees): stopping it there turns the hang into missing
   deliveries that the checks count, instead of a run that never ends. *)
let sim_time_cap = Time_ns.s 1.

(* splitmix64's finalizer: contributions are mixed then summed, so the
   order deliveries happen in cannot show through a digest. *)
let mix v =
  let z = Int64.of_int v in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31))

let mix2 a b = mix (mix a lxor b)

(* A deterministic byte pattern keyed by [key]. *)
let fill_pattern b ~key =
  let s = ref (mix key) in
  for j = 0 to Bytes.length b - 1 do
    if j land 7 = 0 then s := mix (!s + j);
    Bytes.set_uint8 b j ((!s lsr (8 * (j land 7))) land 0xFF)
  done

let pattern len ~key =
  let b = Bytes.create len in
  fill_pattern b ~key;
  b

let sim_fingerprint worlds =
  List.fold_left
    (fun (events, time_us) (w, _) ->
      let s = w.Runtime.sched in
      ( events + Scheduler.events_processed s,
        time_us +. Time_ns.to_us (Scheduler.now s) ))
    (0, 0.) worlds

(* Sum of every instrument called [name], across labels and registries. *)
let metric_sum snaps name =
  List.fold_left
    (fun acc snap ->
      List.fold_left
        (fun acc (e : Metrics.Snapshot.entry) ->
          match e.value with
          | Metrics.Snapshot.Counter n -> acc +. float_of_int n
          | Metrics.Snapshot.Gauge g -> acc +. g
          | Metrics.Snapshot.Summary { count; _ } -> acc +. float_of_int count
          | Metrics.Snapshot.Series _ -> acc)
        acc
        (Metrics.Snapshot.filter snap name))
    0. snaps

let metric_max snaps name =
  List.fold_left
    (fun acc snap ->
      List.fold_left
        (fun acc (e : Metrics.Snapshot.entry) ->
          match e.value with
          | Metrics.Snapshot.Counter n -> Float.max acc (float_of_int n)
          | Metrics.Snapshot.Gauge g -> Float.max acc g
          | _ -> acc)
        acc
        (Metrics.Snapshot.filter snap name))
    0. snaps
