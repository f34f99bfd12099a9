(* halo-torus: every node of a 50x50 2-D torus sends a 32-byte payload to
   each of its 4 neighbours every 50 us of simulated time, straight
   through Fabric.send: an open loop in simulated time. Receivers check
   each payload and fold it into an order-insensitive digest.

   Nearly all the host work is the engine heap, routed link hops and
   world set-up; there is no NI, codec, MPI or shim on the path. *)

open Sim_engine
open Common

let name = "halo-torus"
let side = 50
let nodes = side * side
let steps = 4
let payload_len = 32
let interval = Time_ns.us 50.
let crc = false
let uses_ni = false

let scenario =
  [
    ("nodes", string_of_int nodes);
    ("topology", Printf.sprintf "torus2d:%dx%d" side side);
    ("transport", "offload");
    ("payload_bytes", string_of_int payload_len);
    ("steps", string_of_int steps);
    ("interval_us", "50");
    ("loop", "open (simulated time)");
    ("loss", "0");
  ]

type inputs = {
  seed : int;
  payloads : bytes array;  (** Indexed [src * steps + step]. *)
  expected : bytes array;
      (** Copies of [payloads]: the fabric hands receivers the sender's
          buffer, so checking against it could not see damage. *)
}

type t = {
  world : Runtime.world;
  neighbors : int array array;
  inputs : inputs;
  seen : Bytes.t;  (** One flag per (dst, neighbour slot, step). *)
  mutable ok : int;
  mutable bad : int;
  mutable digest : int;
}

let shape = { nodes; topology = Simnet.Topology.Torus2d (side, side); transport = Runtime.Offload }

let slot t ~dst ~src =
  let ns = t.neighbors.(dst) in
  let rec find i = if i >= Array.length ns then -1 else if ns.(i) = src then i else find (i + 1) in
  find 0

let receive t ~dst ~src buf =
  let sched = t.world.Runtime.sched in
  let s = if Bytes.length buf >= 8 then Int32.to_int (Bytes.get_int32_le buf 0) else -1 in
  let step = if Bytes.length buf >= 8 then Int32.to_int (Bytes.get_int32_le buf 4) else -1 in
  let k = slot t ~dst ~src in
  if s <> src || step < 0 || step >= steps || k < 0
     || not (Bytes.equal buf t.inputs.expected.((s * steps) + step))
  then t.bad <- t.bad + 1
  else begin
    let flag = (((dst * 4) + k) * steps) + step in
    if Bytes.get t.seen flag <> '\000' then t.bad <- t.bad + 1
    else begin
      Bytes.set t.seen flag '\001';
      t.ok <- t.ok + 1;
      t.digest <-
        t.digest
        + mix2 (mix2 (mix2 ((src * nodes) + dst) step) (Scheduler.now sched))
            (Int64.to_int (Bytes.get_int64_le buf 8))
    end
  end

(* One payload per (node, step), shared read-only by its four sends. *)
let inputs ~seed =
  let payloads =
    Array.init (nodes * steps) (fun i ->
        let src = i / steps and step = i mod steps in
        let b = pattern payload_len ~key:(mix2 seed i) in
        Bytes.set_int32_le b 0 (Int32.of_int src);
        Bytes.set_int32_le b 4 (Int32.of_int step);
        b)
  in
  { seed; payloads; expected = Array.map Bytes.copy payloads }

let setup inputs ~lossless:_ =
  let seed = inputs.seed in
  let m = Span.start () in
  let world =
    Runtime.create_world ~seed ~topology:shape.topology ~domains:1 ~env_faults:false ~nodes ()
  in
  Span.stop "runtime.create_world" m;
  let topo = Simnet.Fabric.topology world.Runtime.fabric in
  let neighbors =
    Array.init nodes (fun nid ->
        Simnet.Topology.neighbors topo nid
        |> List.filter (fun v -> v < nodes)
        |> List.sort_uniq compare |> Array.of_list)
  in
  let t =
    {
      world;
      neighbors;
      inputs;
      seen = Bytes.make (nodes * 4 * steps) '\000';
      ok = 0;
      bad = 0;
      digest = 0;
    }
  in
  Array.iteri
    (fun dst pid ->
      Simnet.Fabric.register world.Runtime.fabric pid (fun ~src buf ->
          let m = Span.start () in
          receive t ~dst ~src:src.Simnet.Proc_id.nid buf;
          Span.stop "app.halo_receive" m))
    world.Runtime.ranks;
  t

let run t =
  let world = t.world in
  let sched = world.Runtime.sched and fabric = world.Runtime.fabric in
  let ranks = world.Runtime.ranks in
  (* One generator event per node per step; each schedules the node's
     next step, so the heap holds the in-flight hops plus one generator
     per node rather than the whole schedule. *)
  let rec tick src step () =
    let buf = t.inputs.payloads.((src * steps) + step) in
    Array.iter
      (fun dst ->
        let m = Span.start () in
        Simnet.Fabric.send fabric ~src:ranks.(src) ~dst:ranks.(dst) buf;
        Span.stop "fabric.send" m)
      t.neighbors.(src);
    if step + 1 < steps then
      Scheduler.at sched (interval * (step + 2)) (tick src (step + 1))
  in
  for src = 0 to nodes - 1 do
    Scheduler.at sched interval (tick src 0)
  done;
  let m = Span.start () in
  Runtime.run ~until:sim_time_cap world;
  Span.stop "runtime.run" m

let expected t = Array.fold_left (fun acc ns -> acc + (Array.length ns * steps)) 0 t.neighbors

let check t =
  let expected = expected t in
  let events, time_us = sim_fingerprint [ (t.world, shape) ] in
  {
    msgs = t.ok;
    attempted = expected;
    (* Damaged or duplicated arrivals, plus payloads that never came. *)
    failed = t.bad + (expected - t.ok);
    sim_events = events;
    sim_time_us = time_us;
    digest = t.digest land max_int;
  }

let worlds t = [ (t.world, shape) ]
let registries t = [ Scheduler.metrics t.world.Runtime.sched ]
let mpi_endpoints _ = []
