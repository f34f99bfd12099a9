(* mpi-bypass: the shape of the paper's Figure 6. Two nodes run MPI once
   over Portals with the protocol offloaded to the NIC (the MCP) and once
   over GM. Each rank pre-posts a batch of receives, posts a batch of
   50 kB sends, computes on its host CPU, then waits for the batch: a
   closed loop. Receivers verify every payload byte.

   Payload bytes, the MPI adapters, NI match/deposit, Wire and the Cpu
   model do the work; the heap is shallow and each wire is private. *)

open Sim_engine
open Common

let name = "mpi-bypass"
let message_size = 50_000
let batch = 10
let iters = 8
let work = Time_ns.ms 5.
let crc = false
let uses_ni = true

let backends = [| ("portals", `Portals); ("gm", `Gm) |]

let scenario =
  [
    ("nodes", "2");
    ("topology", "full");
    ("transport", "offload");
    ("backends", "portals,gm");
    ("message_bytes", string_of_int message_size);
    ("batch", string_of_int batch);
    ("iterations", string_of_int iters);
    ("work_us", "5000");
    ("loop", "closed");
    ("loss", "0");
  ]

let shape = { nodes = 2; topology = Simnet.Topology.Full; transport = Runtime.Offload }

(* Indexed [((rank * iters) + iter) * batch + i]: what [rank] sends. *)
let index ~rank ~iter ~i = (((rank * iters) + iter) * batch) + i

type inputs = {
  payloads : bytes array;
  recv_bufs : bytes array array;  (** Per backend, indexed like [payloads] by receiver. *)
}

type world = {
  w : Runtime.world;
  backend : int;
  endpoints : Mpi.t array;
  mutable bad : int;
  mutable digest : int;
}

type t = { inputs : inputs; worlds : world array }

let inputs ~seed =
  let n = 2 * iters * batch in
  {
    payloads = Array.init n (fun i -> pattern message_size ~key:(mix2 seed i));
    recv_bufs =
      Array.map (fun _ -> Array.init n (fun _ -> Bytes.make message_size '\000')) backends;
  }

let setup inputs ~lossless:_ =
  let worlds =
    Array.mapi
      (fun backend (_, kind) ->
        let m = Span.start () in
        let w =
          Runtime.create_world ~transport:shape.transport ~domains:1 ~env_faults:false ~nodes:2 ()
        in
        Span.stop "runtime.create_world" m;
        let endpoints =
          Array.init 2 (fun rank ->
              let tp = Runtime.transport_of_rank w rank in
              let m = Span.start () in
              let ep =
                match kind with
                | `Portals -> Mpi.create_portals tp ~ranks:w.Runtime.ranks ~rank ()
                | `Gm -> Mpi.create_gm tp ~ranks:w.Runtime.ranks ~rank ()
              in
              Span.stop "setup.mpi_create" m;
              ep)
        in
        { w; backend; endpoints; bad = 0; digest = 0 })
      backends
  in
  { inputs; worlds }

let rank_main t wd ~rank =
  let ep = wd.endpoints.(rank) and peer = 1 - rank in
  let sched = Runtime.sched_of_rank wd.w rank in
  let cpu = Runtime.host_cpu_of_rank wd.w rank in
  let recv_bufs = t.inputs.recv_bufs.(wd.backend) in
  for iter = 0 to iters - 1 do
    let recvs =
      List.init batch (fun i ->
          let buf = recv_bufs.(index ~rank ~iter ~i) in
          let m = Span.start () in
          let r = Mpi.irecv ep ~source:peer ~tag:((iter * batch) + i) buf in
          Span.stop "mpi.irecv" m;
          r)
    in
    let m = Span.start () in
    Mpi.barrier ep;
    Span.stop "mpi.barrier" m;
    let sends =
      List.init batch (fun i ->
          let buf = t.inputs.payloads.(index ~rank ~iter ~i) in
          let m = Span.start () in
          let r = Mpi.isend ep ~dst:peer ~tag:((iter * batch) + i) buf in
          Span.stop "mpi.isend" m;
          r)
    in
    Cpu.compute cpu work;
    let m = Span.start () in
    let statuses = Mpi.waitall ep (sends @ recvs) in
    Span.stop "mpi.waitall" m;
    List.iteri
      (fun j (st : Mpi.status) ->
        if j >= batch then begin
          let i = j - batch in
          if st.source <> peer || st.tag <> (iter * batch) + i
             || st.length <> message_size
          then wd.bad <- wd.bad + 1
        end)
      statuses;
    wd.digest <-
      wd.digest + mix2 (mix2 ((wd.backend * 2) + rank) iter) (Scheduler.now sched)
  done;
  let m = Span.start () in
  Mpi.barrier ep;
  Span.stop "mpi.barrier" m;
  Mpi.finalize ep

let run t =
  Array.iter
    (fun wd ->
      Runtime.spawn_ranks wd.w (rank_main t wd);
      let m = Span.start () in
      Runtime.run ~until:sim_time_cap wd.w;
      Span.stop "runtime.run" m)
    t.worlds

let check t =
  let attempted = ref 0 and failed = ref 0 and msgs = ref 0 and digest = ref 0 in
  Array.iter
    (fun wd ->
      let bufs = t.inputs.recv_bufs.(wd.backend) in
      for rank = 0 to 1 do
        for iter = 0 to iters - 1 do
          for i = 0 to batch - 1 do
            incr attempted;
            let got = bufs.(index ~rank ~iter ~i) in
            let sent = t.inputs.payloads.(index ~rank:(1 - rank) ~iter ~i) in
            if Bytes.equal got sent then begin
              incr msgs;
              digest := !digest + mix2 (index ~rank ~iter ~i) (Int64.to_int (Bytes.get_int64_le got 0))
            end
            else incr failed
          done
        done
      done;
      failed := !failed + wd.bad;
      (* The next round must prove its own deliveries. *)
      Array.iter (fun b -> Bytes.fill b 0 message_size '\000') bufs;
      digest := !digest + wd.digest)
    t.worlds;
  let events, time_us = sim_fingerprint (List.map (fun wd -> (wd.w, shape)) (Array.to_list t.worlds)) in
  {
    msgs = !msgs;
    attempted = !attempted;
    failed = !failed;
    sim_events = events;
    sim_time_us = time_us;
    digest = !digest land max_int;
  }

let worlds t = Array.to_list (Array.map (fun wd -> (wd.w, shape)) t.worlds)
let registries t = Array.to_list (Array.map (fun wd -> Scheduler.metrics wd.w.Runtime.sched) t.worlds)

let mpi_endpoints t = List.concat_map (fun wd -> Array.to_list wd.endpoints) (Array.to_list t.worlds)
