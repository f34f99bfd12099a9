open Sim_engine

type stats = {
  messages_sent : int;
  bytes_sent : int;
  messages_delivered : int;
  drops_unregistered : int;
  drops_injected : int;
  drops_congested : int;
  drops_crashed : int;
  drops_partitioned : int;
  dups_injected : int;
  corrupts_injected : int;
  delays_injected : int;
}

type shim = {
  shim_tx : src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit;
  shim_rx : src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit;
}

type handler = src:Proc_id.t -> bytes -> unit

(* A message routed over the hop graph, allocated once at send time and
   carried hop to hop. Every stochastic choice — fault decision, delay,
   partition cut, crash epochs — is resolved before the first hop, so the
   hops (on whichever shard runs them) only execute consequences. The
   payload is replaced when a later hop corrupts it. *)
type flight = {
  fl_src : Proc_id.t;
  fl_dst : Proc_id.t;
  fl_path : int array; (* link ids, first hop first *)
  fl_seq : int; (* per-pair message sequence, keys hop corruption *)
  fl_wire_bytes : int; (* wire image of the {e original} frame *)
  fl_decision : Fault.decision;
  fl_cut : bool;
  fl_src_epoch : int;
  fl_dst_epoch : int;
  fl_delay_by : Time_ns.t;
  fl_clamp : bool; (* FIFO floor active, decided at send time *)
  mutable fl_payload : bytes;
}

(* Cross-shard fabric traffic as plain data. The sending shard resolves
   every stochastic choice before the message leaves its domain, so the
   receiving shard only executes consequences against its own replica
   state. Closures must not cross domains: they would capture the wrong
   shard's fabric. *)
type remote =
  | R_land of {
      rl_src : Proc_id.t;
      rl_dst : Proc_id.t;
      rl_payload : bytes;
      rl_decision : Fault.decision;
      rl_cut : bool;
      rl_src_epoch : int;
      rl_dst_epoch : int;
    }
  | R_hop of flight * int (* the flight and its next hop index *)

type par = {
  par_self : int;
  par_owner : int array; (* vertex id -> shard *)
  par_post : dst_shard:int -> time:Time_ns.t -> remote -> unit;
}

type t = {
  fabric_sched : Scheduler.t;
  fabric_profile : Profile.t;
  topo : Topology.t;
  (* One serialising link per directed edge of the hop graph, indexed by
     [Topology.link_id]; empty for the fully-connected (seed) topology,
     which keeps the private-wire fast path. *)
  hop_links : Link.t array;
  (* (src nid * nodes + dst nid) -> the link-id path, computed on first
     use: routing is deterministic, so each pair is resolved once. *)
  routes : (int, int array) Hashtbl.t;
  nodes : Node.t array;
  (* Per-node handler slots indexed by pid — [handlers.(nid).(pid)].
     Delivery is the fabric's hottest operation, so the lookup is two
     array loads instead of a hash of the (nid, pid) record. The pid
     dimension grows on demand (procs-per-node is small, usually 1). *)
  handlers : handler option array array;
  mutable fault : Fault.t option;
  mutable shim : shim option;
  (* Scheduled cuts, consulted (deterministically, no PRNG) on every
     landing while non-empty. *)
  mutable partitions : Fault.partition_schedule;
  (* Per-(src,dst) FIFO floor, active from the first non-reorder [Delay]
     decision on: a delayed message records its arrival and every later
     message on the pair lands no earlier, so jitter reorders across
     pairs but never within one. Inactive (and costing nothing) until a
     delay fault actually fires. *)
  mutable fifo_clamp : bool;
  pair_arrivals : (Proc_id.t * Proc_id.t, Time_ns.t ref) Hashtbl.t;
  (* Per-(src,dst) message sequence, maintained only when the fault model
     has a keyed per-hop sampler; keys its draws. *)
  send_seqs : (Proc_id.t * Proc_id.t, int ref) Hashtbl.t;
  (* Parallel-engine hooks; None in sequential mode. In parallel mode
     this fabric instance is one shard's replica of the world: local
     nodes are authoritative, remote nodes are shadows kept in sync by
     the replicated crash/partition schedules. *)
  mutable par : par option;
  (* Fault-family probes are registered on first use so a fault-free
     run's metric snapshot stays exactly what it was before the
     corruption/delay/partition faults existed. *)
  mutable fault_probes_on : bool;
  mutable partition_probe_on : bool;
  mutable sent : int;
  mutable sent_bytes : int;
  mutable delivered : int;
  mutable drop_unregistered : int;
  mutable drop_congested : int;
  mutable drop_crashed : int;
  mutable drop_partitioned : int;
  mutable corrupt_injected : int;
  mutable delay_injected : int;
  mutable dup_injected : int;
  mutable crash_count : int;
  mutable restart_count : int;
  mutable crash_listeners : (Proc_id.nid -> unit) array;
  mutable restart_listeners : (Proc_id.nid -> unit) array;
  (* Injected drops are counted per (src, dst) pair in the registry;
     [stats] derives the total by summing these. Filled on first drop, so
     memory follows the pairs that actually lost traffic, not nodes². *)
  drop_pairs : (Proc_id.t * Proc_id.t, Metrics.counter) Hashtbl.t;
}

let create ?(topology = Topology.Full) ?queue_limit sched ~profile ~nodes =
  if nodes <= 0 then invalid_arg "Fabric.create: need at least one node";
  let topo = Topology.build topology ~nodes in
  let hop_links =
    Array.init (Topology.link_count topo) (fun id ->
        Link.create
          ~name:(Topology.link_name topo id)
          ~bandwidth:profile.Profile.wire_bandwidth
          ~latency:profile.Profile.wire_latency ?queue_limit sched)
  in
  let t =
    {
      fabric_sched = sched;
      fabric_profile = profile;
      topo;
      hop_links;
      routes = Hashtbl.create (if Array.length hop_links = 0 then 1 else 64);
      nodes = Array.init nodes (fun nid -> Node.create sched ~nid ~profile);
      handlers = Array.make nodes [||];
      fault = None;
      shim = None;
      partitions = [];
      fifo_clamp = false;
      pair_arrivals = Hashtbl.create 16;
      send_seqs = Hashtbl.create 16;
      par = None;
      fault_probes_on = false;
      partition_probe_on = false;
      sent = 0;
      sent_bytes = 0;
      delivered = 0;
      drop_unregistered = 0;
      drop_congested = 0;
      drop_crashed = 0;
      drop_partitioned = 0;
      corrupt_injected = 0;
      delay_injected = 0;
      dup_injected = 0;
      crash_count = 0;
      restart_count = 0;
      crash_listeners = [||];
      restart_listeners = [||];
      drop_pairs = Hashtbl.create 16;
    }
  in
  let m = Scheduler.metrics sched in
  let probe name f = Metrics.probe m name (fun () -> float_of_int (f ())) in
  probe "fabric.sent" (fun () -> t.sent);
  probe "fabric.sent_bytes" (fun () -> t.sent_bytes);
  probe "fabric.delivered" (fun () -> t.delivered);
  probe "fabric.drops_unregistered" (fun () -> t.drop_unregistered);
  (* Only a shared-link topology can congest; keep the seed topology's
     metric snapshot exactly as it was. *)
  if Array.length hop_links > 0 then
    probe "fabric.drops_congested" (fun () -> t.drop_congested);
  probe "fabric.dups_injected" (fun () -> t.dup_injected);
  probe "fabric.drops_crashed" (fun () -> t.drop_crashed);
  probe "fabric.crashes" (fun () -> t.crash_count);
  probe "fabric.restarts" (fun () -> t.restart_count);
  t

let sched t = t.fabric_sched
let profile t = t.fabric_profile
let topology t = t.topo
let node_count t = Array.length t.nodes

let hop_link t id =
  if id < 0 || id >= Array.length t.hop_links then
    invalid_arg (Printf.sprintf "Fabric.hop_link: id %d out of range" id);
  t.hop_links.(id)

let peak_link_queue_depth t =
  Array.fold_left (fun acc l -> max acc (Link.peak_queue_depth l)) 0 t.hop_links

let route t ~src ~dst =
  let key = (src * Array.length t.nodes) + dst in
  match Hashtbl.find_opt t.routes key with
  | Some path -> path
  | None ->
    let path = Router.route t.topo ~src ~dst in
    Hashtbl.replace t.routes key path;
    path

let node t nid =
  if nid < 0 || nid >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Fabric.node: nid %d out of range" nid);
  t.nodes.(nid)

let find_handler t pid =
  let nid = pid.Proc_id.nid and p = pid.Proc_id.pid in
  if nid < 0 || nid >= Array.length t.handlers || p < 0 then None
  else
    let slots = t.handlers.(nid) in
    if p >= Array.length slots then None else slots.(p)

let register t pid handler =
  if find_handler t pid <> None then
    invalid_arg ("Fabric.register: already registered: " ^ Proc_id.to_string pid);
  ignore (node t pid.Proc_id.nid);
  let p = pid.Proc_id.pid in
  if p < 0 then
    invalid_arg ("Fabric.register: negative pid: " ^ Proc_id.to_string pid);
  let slots = t.handlers.(pid.Proc_id.nid) in
  let slots =
    if p < Array.length slots then slots
    else begin
      let grown = Array.make (max (p + 1) (2 * Array.length slots)) None in
      Array.blit slots 0 grown 0 (Array.length slots);
      t.handlers.(pid.Proc_id.nid) <- grown;
      grown
    end
  in
  slots.(p) <- Some handler

let unregister t pid =
  let nid = pid.Proc_id.nid and p = pid.Proc_id.pid in
  if nid >= 0 && nid < Array.length t.handlers && p >= 0 then begin
    let slots = t.handlers.(nid) in
    if p < Array.length slots then slots.(p) <- None
  end

let is_registered t pid = find_handler t pid <> None
let is_node_up t nid = Node.is_up (node t nid)
let incarnation t nid = Node.incarnation (node t nid)

let set_par t ~self ~owner ~post =
  if t.par <> None then invalid_arg "Fabric.set_par: already sharded";
  let vertices = max (Topology.vertex_count t.topo) (Array.length t.nodes) in
  t.par <- Some { par_self = self; par_owner = Array.init vertices owner; par_post = post }

let shard_self t = match t.par with None -> 0 | Some p -> p.par_self

(* Whether this fabric instance is the authority for [nid] — always, in
   sequential mode. Shadow replicas mirror crash/restart state but must
   not double-count it. *)
let owns t nid =
  match t.par with None -> true | Some p -> p.par_owner.(nid) = p.par_self

(* Conservative: a replica can only rule out an endpoint it is the
   authority for. Remote handler tables live on the owning shard. *)
let endpoint_live t pid = if owns t pid.Proc_id.nid then is_registered t pid else true

let append_listener arr f = Array.append arr [| f |]
let on_crash t f = t.crash_listeners <- append_listener t.crash_listeners f
let on_restart t f = t.restart_listeners <- append_listener t.restart_listeners f

(* In parallel mode this runs on {e every} shard at the same simulated
   time (the schedule is replicated), so each shard's replica of the
   victim flips state in lockstep; only the owner counts the event, and
   the kill/handler-clear parts are naturally no-ops on shadows (remote
   nodes have no fibers or handlers on this shard). Listeners fire on
   every shard: each shard's shims and monitors track all peers. *)
let crash t nid =
  let n = node t nid in
  Node.crash n;
  if owns t nid then t.crash_count <- t.crash_count + 1;
  (* Volatile state dies with the node: its processes disappear from the
     fabric and its resident fibers are destroyed. *)
  Array.fill t.handlers.(nid) 0 (Array.length t.handlers.(nid)) None;
  ignore (Scheduler.kill_domain t.fabric_sched nid);
  Array.iter (fun f -> f nid) t.crash_listeners

let restart t nid =
  let n = node t nid in
  Node.restart n;
  if owns t nid then t.restart_count <- t.restart_count + 1;
  Array.iter (fun f -> f nid) t.restart_listeners

let apply_crash_schedule t schedule =
  List.iter
    (fun ev ->
      ignore (node t ev.Fault.victim);
      Scheduler.at t.fabric_sched ev.Fault.down_at (fun () ->
          crash t ev.Fault.victim);
      Option.iter
        (fun up ->
          Scheduler.at t.fabric_sched up (fun () -> restart t ev.Fault.victim))
        ev.Fault.up_at)
    schedule

let ensure_fault_probes t =
  if not t.fault_probes_on then begin
    t.fault_probes_on <- true;
    let m = Scheduler.metrics t.fabric_sched in
    let probe name f = Metrics.probe m name (fun () -> float_of_int (f ())) in
    probe "fabric.corrupts_injected" (fun () -> t.corrupt_injected);
    probe "fabric.delays_injected" (fun () -> t.delay_injected)
  end

let set_fault_model t fault =
  if fault <> None then ensure_fault_probes t;
  t.fault <- fault

let fault_model t = t.fault

let apply_partition_schedule t schedule =
  let schedule = Fault.partition_schedule schedule in
  List.iter
    (fun nid ->
      if nid < 0 || nid >= Array.length t.nodes then
        invalid_arg
          (Printf.sprintf "Fabric.apply_partition_schedule: unknown nid %d" nid))
    (Fault.partition_nids schedule);
  if schedule <> [] && not t.partition_probe_on then begin
    t.partition_probe_on <- true;
    Metrics.probe
      (Scheduler.metrics t.fabric_sched)
      "fabric.drops_partitioned"
      (fun () -> float_of_int t.drop_partitioned)
  end;
  t.partitions <- t.partitions @ schedule

let partition_schedule t = t.partitions
let has_partitions t = t.partitions <> []

let partitioned_now t ~src ~dst =
  t.partitions <> []
  && Fault.cut_now t.partitions ~now:(Scheduler.now t.fabric_sched) ~src ~dst

let set_fault_injector t f =
  t.fault <-
    Option.map
      (fun f ->
        Fault.custom (fun ~now:_ ~src ~dst ~len ->
            if f ~src ~dst ~len then Fault.Drop else Fault.Deliver))
      f

let install_shim t shim =
  if t.shim <> None then
    invalid_arg "Fabric.install_shim: a shim is already installed";
  t.shim <- Some shim

let has_shim t = t.shim <> None

let drop_pair_counter t ~src ~dst =
  match Hashtbl.find_opt t.drop_pairs (src, dst) with
  | Some c -> c
  | None ->
    let c =
      Metrics.counter
        (Scheduler.metrics t.fabric_sched)
        ~labels:
          [ ("src", Proc_id.to_string src); ("dst", Proc_id.to_string dst) ]
        "fabric.drops_injected"
    in
    Hashtbl.replace t.drop_pairs (src, dst) c;
    c

let deliver t ~src ~dst payload =
  match find_handler t dst with
  | None -> t.drop_unregistered <- t.drop_unregistered + 1
  | Some handler ->
    t.delivered <- t.delivered + 1;
    handler ~src payload

let arrive t ~src ~dst payload =
  match t.shim with
  | Some shim -> shim.shim_rx ~src ~dst payload
  | None -> deliver t ~src ~dst payload

let mutate_counted t c payload =
  t.corrupt_injected <- t.corrupt_injected + 1;
  Fault.mutate c payload

(* On multi-hop routes the end-to-end fault sample covers the first hop;
   each later hop re-samples, honouring only [Corrupt] outcomes, so a
   long route accumulates more bit damage than a short one while
   loss/delay/duplication stay end-to-end properties. The re-sample is
   the model's {e keyed} sampler — a pure function of (pair, message
   sequence, hop index) — so a route crossing shard boundaries draws the
   same damage no matter which domain executes which hop. Models that
   cannot corrupt have no sampler and cost nothing here. *)
let per_hop_corrupt t ~src ~dst ~seq ~hop payload =
  match t.fault with
  | Some f -> (
    match Fault.hop_sample f with
    | Some sample -> (
      match sample ~src ~dst ~seq ~hop ~len:(Bytes.length payload) with
      | Some c -> mutate_counted t c payload
      | None -> payload)
    | None -> payload)
  | None -> payload

(* Per-pair send sequence, maintained only when keyed hop sampling needs
   it: the count is then a pure function of the pair's send history, so
   sequential and parallel runs agree on every key. *)
let next_send_seq t ~src ~dst =
  match t.fault with
  | Some f when Fault.hop_sample f <> None -> (
    match Hashtbl.find_opt t.send_seqs (src, dst) with
    | Some r ->
      let v = !r in
      r := v + 1;
      v
    | None ->
      Hashtbl.replace t.send_seqs (src, dst) (ref 1);
      0)
  | _ -> 0

let clamp_arrival t ~src ~dst arrival =
  match Hashtbl.find_opt t.pair_arrivals (src, dst) with
  | Some r ->
    let a = if Time_ns.compare arrival !r < 0 then !r else arrival in
    r := a;
    a
  | None ->
    Hashtbl.replace t.pair_arrivals (src, dst) (ref arrival);
    arrival

(* Landing: the message has reached its destination at the current
   simulated time; apply the decision resolved at send time. Runs on the
   destination's owner shard, so every land-side counter is incremented
   exactly once across the world. *)
let land_msg t ~src ~dst ~decision ~cut ~src_epoch ~dst_epoch payload =
  let sender = node t src.Proc_id.nid and receiver = node t dst.Proc_id.nid in
  if
    Node.crashes sender <> src_epoch
    || Node.crashes receiver <> dst_epoch
    || not (Node.is_up receiver)
  then t.drop_crashed <- t.drop_crashed + 1
  else if cut then t.drop_partitioned <- t.drop_partitioned + 1
  else
    match decision with
    | Fault.Drop -> Metrics.incr (drop_pair_counter t ~src ~dst)
    | Fault.Deliver | Fault.Delay _ -> arrive t ~src ~dst payload
    | Fault.Corrupt c -> arrive t ~src ~dst (mutate_counted t c payload)
    | Fault.Duplicate ->
      t.dup_injected <- t.dup_injected + 1;
      arrive t ~src ~dst payload;
      arrive t ~src ~dst payload

let land_flight t fl =
  land_msg t ~src:fl.fl_src ~dst:fl.fl_dst ~decision:fl.fl_decision
    ~cut:fl.fl_cut ~src_epoch:fl.fl_src_epoch ~dst_epoch:fl.fl_dst_epoch
    fl.fl_payload

(* Store-and-forward over the hop path: at each hop the message
   FIFO-queues on the shared link, occupies it for its full wire image,
   then propagates to the next vertex. A hop whose queue is over the
   limit drops the message — to the layers above (and to
   [lib/reliability]) this is indistinguishable from wire loss. Each hop
   executes on the shard owning the link's source vertex; advancing to a
   vertex owned elsewhere posts the remaining journey as plain data. *)
let rec hop_step t fl i =
  let path = fl.fl_path in
  let src = fl.fl_src and dst = fl.fl_dst in
  if i >= Array.length path then begin
    let now = Scheduler.now t.fabric_sched in
    let arrival = Time_ns.add now fl.fl_delay_by in
    let arrival =
      if fl.fl_clamp then clamp_arrival t ~src ~dst arrival else arrival
    in
    if Time_ns.compare arrival now = 0 then land_flight t fl
    else Scheduler.at t.fabric_sched arrival (fun () -> land_flight t fl)
  end
  else begin
    if i > 0 then
      fl.fl_payload <-
        per_hop_corrupt t ~src ~dst ~seq:fl.fl_seq ~hop:i fl.fl_payload;
    let flow = (src.Proc_id.nid * Array.length t.nodes) + dst.Proc_id.nid in
    match
      Link.transmit t.hop_links.(path.(i)) ~flow ~bytes:fl.fl_wire_bytes ()
    with
    | `Dropped -> t.drop_congested <- t.drop_congested + 1
    | `Accepted arrival -> (
      let next_v =
        if i + 1 >= Array.length path then dst.Proc_id.nid
        else (Topology.link t.topo path.(i + 1)).Topology.src_v
      in
      match t.par with
      | Some p when p.par_owner.(next_v) <> p.par_self ->
        p.par_post ~dst_shard:p.par_owner.(next_v) ~time:arrival
          (R_hop (fl, i + 1))
      | _ ->
        Scheduler.at t.fabric_sched arrival (fun () -> hop_step t fl (i + 1)))
  end

let exec_remote t = function
  | R_land
      { rl_src; rl_dst; rl_payload; rl_decision; rl_cut; rl_src_epoch;
        rl_dst_epoch } ->
    land_msg t ~src:rl_src ~dst:rl_dst ~decision:rl_decision ~cut:rl_cut
      ~src_epoch:rl_src_epoch ~dst_epoch:rl_dst_epoch rl_payload
  | R_hop (fl, i) -> hop_step t fl i

let receive_remote t ~time msg =
  Scheduler.at t.fabric_sched time (fun () -> exec_remote t msg)

let send_raw t ~src ~dst payload =
  let len = Bytes.length payload in
  let sender = node t src.Proc_id.nid in
  let receiver = node t dst.Proc_id.nid in
  if not (Node.is_up sender) then
    (* A dead node injects nothing; late scheduled callbacks acting on its
       behalf (retransmit timers, NIC engines) are silently fenced. *)
    t.drop_crashed <- t.drop_crashed + 1
  else begin
    t.sent <- t.sent + 1;
    t.sent_bytes <- t.sent_bytes + len;
    let decision =
      match t.fault with
      | None -> Fault.Deliver
      | Some f ->
        Fault.decide f ~now:(Scheduler.now t.fabric_sched) ~src ~dst ~len
    in
    (* A scheduled cut severs the pair outright — decided at send time
       (deterministic, no PRNG draw) but counted at landing like every
       other in-flight loss. *)
    let cut =
      t.partitions <> []
      && Fault.cut_now t.partitions
           ~now:(Scheduler.now t.fabric_sched)
           ~src:src.Proc_id.nid ~dst:dst.Proc_id.nid
    in
    let delay_by, delay_reorder =
      match decision with
      | Fault.Delay { by; reorder } ->
        t.delay_injected <- t.delay_injected + 1;
        if not reorder then t.fifo_clamp <- true;
        (by, reorder)
      | _ -> (Time_ns.zero, false)
    in
    (* The FIFO floor is decided at send time and rides with the message:
       a multi-hop landing may execute on another shard, whose own
       fifo_clamp flag only reflects traffic {e sent} from there. *)
    let clamp = t.fifo_clamp && not delay_reorder in
    (* Crash epochs captured at send time: if either end crashes while the
       message is in flight, it was sitting in a NIC pipeline that no
       longer exists, so it is lost even if the node is back up by
       arrival. The receiver's epoch reads this shard's replica, kept in
       lockstep by the replicated crash schedule. *)
    let src_epoch = Node.crashes sender and dst_epoch = Node.crashes receiver in
    let seq = next_send_seq t ~src ~dst in
    let path = route t ~src:src.Proc_id.nid ~dst:dst.Proc_id.nid in
    if Array.length path = 0 then begin
      (* Private-wire fast path: the seed model, kept bit-for-bit. Also
         taken for node-local traffic on every topology. *)
      let serialised =
        Link.occupy (Node.tx_link sender) (Profile.tx_time t.fabric_profile len)
      in
      let arrival =
        Time_ns.add
          (Time_ns.add serialised t.fabric_profile.Profile.wire_latency)
          delay_by
      in
      let arrival =
        if clamp then clamp_arrival t ~src ~dst arrival else arrival
      in
      match t.par with
      | Some p when p.par_owner.(dst.Proc_id.nid) <> p.par_self ->
        p.par_post ~dst_shard:p.par_owner.(dst.Proc_id.nid) ~time:arrival
          (R_land
             {
               rl_src = src;
               rl_dst = dst;
               rl_payload = payload;
               rl_decision = decision;
               rl_cut = cut;
               rl_src_epoch = src_epoch;
               rl_dst_epoch = dst_epoch;
             })
      | _ ->
        Scheduler.at t.fabric_sched arrival (fun () ->
            land_msg t ~src ~dst ~decision ~cut ~src_epoch ~dst_epoch payload)
    end
    else begin
      hop_step t
        {
          fl_src = src;
          fl_dst = dst;
          fl_path = path;
          fl_seq = seq;
          fl_wire_bytes = Profile.wire_bytes_of_len t.fabric_profile len;
          fl_decision = decision;
          fl_cut = cut;
          fl_src_epoch = src_epoch;
          fl_dst_epoch = dst_epoch;
          fl_delay_by = delay_by;
          fl_clamp = clamp;
          fl_payload = payload;
        }
        0
    end
  end

let send t ~src ~dst payload =
  match t.shim with
  | Some shim -> shim.shim_tx ~src ~dst payload
  | None -> send_raw t ~src ~dst payload

let stats t =
  {
    messages_sent = t.sent;
    bytes_sent = t.sent_bytes;
    messages_delivered = t.delivered;
    drops_unregistered = t.drop_unregistered;
    drops_congested = t.drop_congested;
    drops_crashed = t.drop_crashed;
    drops_partitioned = t.drop_partitioned;
    corrupts_injected = t.corrupt_injected;
    delays_injected = t.delay_injected;
    drops_injected =
      Hashtbl.fold (fun _ c acc -> acc + Metrics.counter_value c) t.drop_pairs 0;
    dups_injected = t.dup_injected;
  }
