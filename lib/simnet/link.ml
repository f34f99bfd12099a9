open Sim_engine

type congestion = { cong_depth : int; cong_bytes : int }

(* No flow: [transmit] called without [~flow]. Fabric flow ids are
   non-negative. *)
let no_flow = -1

type t = {
  sched : Scheduler.t;
  link_name : string;
  bandwidth : float option;
  latency : Time_ns.t;
  queue_limit : int option;
  mutable free_at : Time_ns.t;
  mutable busy : Time_ns.t;
  (* Transmissions still on the link, as a FIFO ring of (finish, order
     mark, flow) triples laid out flat, entry [i] at [3i .. 3i+2]. Each
     entry leaves once the scheduler has passed (finish, mark) — the key
     a release callback scheduled by [transmit] would have had — so the
     counts below are exactly what per-transmission release events would
     maintain, without the events. Finish times and marks both rise
     along the ring, so releasing from the head is enough. *)
  mutable ring : int array;
  mutable head : int; (* entry index of the oldest transmission *)
  mutable outstanding : int;
  mutable peak_outstanding : int;
  mutable drops : int;
  mutable hook : (congestion -> unit) option;
  (* flow id -> number of its transmissions currently on this link. *)
  flows : (int, int) Hashtbl.t;
  mutable peak_flows : int;
}

let create ?(name = "link") ?bandwidth ?(latency = Time_ns.zero) ?queue_limit
    sched =
  let t =
    {
      sched;
      link_name = name;
      bandwidth;
      latency;
      queue_limit;
      free_at = Time_ns.zero;
      busy = Time_ns.zero;
      ring = [||];
      head = 0;
      outstanding = 0;
      peak_outstanding = 0;
      drops = 0;
      hook = None;
      flows = Hashtbl.create (if bandwidth = None then 1 else 8);
      peak_flows = 0;
    }
  in
  let m = Scheduler.metrics sched in
  let labels = [ ("link", name) ] in
  Metrics.probe m ~labels "link.busy_us" (fun () -> Time_ns.to_us t.busy);
  Metrics.probe m ~labels "link.utilization" (fun () ->
      let now = Time_ns.to_us (Scheduler.now sched) in
      if now <= 0. then 0. else Time_ns.to_us t.busy /. now);
  if bandwidth <> None then begin
    Metrics.probe m ~labels "link.busy_ns" (fun () -> float_of_int t.busy);
    Metrics.probe m ~labels "link.queue_depth" (fun () ->
        float_of_int t.peak_outstanding);
    Metrics.probe m ~labels "link.flows" (fun () -> float_of_int t.peak_flows);
    Metrics.probe m ~labels "link.congestion_drops" (fun () ->
        float_of_int t.drops)
  end;
  t

let occupy t d =
  if Time_ns.compare d Time_ns.zero < 0 then
    invalid_arg (t.link_name ^ ": negative occupancy");
  let start = Time_ns.max (Scheduler.now t.sched) t.free_at in
  let finish = Time_ns.add start d in
  t.free_at <- finish;
  t.busy <- Time_ns.add t.busy d;
  finish

(* [Hashtbl.find] rather than [find_opt]: both run once per hop, and
   the option would be their only allocation. *)
let flow_enter t flow =
  match Hashtbl.find t.flows flow with
  | n -> Hashtbl.replace t.flows flow (n + 1)
  | exception Not_found ->
    Hashtbl.replace t.flows flow 1;
    t.peak_flows <- max t.peak_flows (Hashtbl.length t.flows)

let flow_leave t flow =
  match Hashtbl.find t.flows flow with
  | 1 -> Hashtbl.remove t.flows flow
  | n -> Hashtbl.replace t.flows flow (n - 1)
  | exception Not_found -> ()

let release t =
  let cap = Array.length t.ring / 3 in
  let continue = ref true in
  while !continue && t.outstanding > 0 do
    let h = t.head in
    if
      Scheduler.has_passed t.sched ~time:t.ring.(3 * h)
        ~mark:t.ring.((3 * h) + 1)
    then begin
      let flow = t.ring.((3 * h) + 2) in
      if flow <> no_flow then flow_leave t flow;
      t.head <- (if h + 1 = cap then 0 else h + 1);
      t.outstanding <- t.outstanding - 1
    end
    else continue := false
  done

let push t ~finish ~mark ~flow =
  let cap = Array.length t.ring / 3 in
  if t.outstanding = cap then begin
    (* Full: unroll into twice the room, oldest entry first. *)
    let grown = Array.make (3 * max 1 (2 * cap)) 0 in
    let first = cap - t.head in
    Array.blit t.ring (3 * t.head) grown 0 (3 * first);
    Array.blit t.ring 0 grown (3 * first) (3 * t.head);
    t.ring <- grown;
    t.head <- 0
  end;
  let cap = Array.length t.ring / 3 in
  let tail = 3 * ((t.head + t.outstanding) mod cap) in
  t.ring.(tail) <- finish;
  t.ring.(tail + 1) <- mark;
  t.ring.(tail + 2) <- flow;
  t.outstanding <- t.outstanding + 1

let transmit t ?(flow = no_flow) ~bytes () =
  let bandwidth =
    match t.bandwidth with
    | Some bw -> bw
    | None -> invalid_arg (t.link_name ^ ": transmit on a link with no bandwidth")
  in
  release t;
  let congested =
    match t.queue_limit with
    | Some lim -> t.outstanding >= lim
    | None -> false
  in
  if congested then begin
    t.drops <- t.drops + 1;
    Option.iter
      (fun hook -> hook { cong_depth = t.outstanding; cong_bytes = bytes })
      t.hook;
    `Dropped
  end
  else begin
    let finish = occupy t (Time_ns.of_rate ~bytes_per_s:bandwidth bytes) in
    push t ~finish ~mark:(Scheduler.order_mark t.sched) ~flow;
    t.peak_outstanding <- max t.peak_outstanding t.outstanding;
    if flow <> no_flow then flow_enter t flow;
    `Accepted (Time_ns.add finish t.latency)
  end

let on_congestion t hook = t.hook <- Some hook
let name t = t.link_name
let free_at t = t.free_at
let busy_time t = t.busy

let queue_depth t =
  release t;
  t.outstanding

let peak_queue_depth t = t.peak_outstanding
let peak_flows t = t.peak_flows
let congestion_drops t = t.drops
