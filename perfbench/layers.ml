(* Layer replays of the traced run.

   Some layers are reached only inside Runtime.run, where the benchmark
   cannot put a span. For those the traced run records each world's
   fabric traffic once, then replays it entered one layer lower on a
   fresh world of the same shape: through Ni.put (NI + Wire + fabric +
   engine), through Fabric.send (fabric + engine), and as no-op
   Scheduler events (engine alone). A layer's self cost is the
   difference between adjacent entry points. *)

open Sim_engine

type frame = {
  time : Time_ns.t;
  src : Simnet.Proc_id.t;
  dst : Simnet.Proc_id.t;
  len : int;
}

(* Record every message a fabric carries, by installing a pass-through
   shim: a lossless world's fabric has none of its own. *)
let capture fabric =
  let frames = ref [] in
  let sched = Simnet.Fabric.sched fabric in
  Simnet.Fabric.install_shim fabric
    {
      Simnet.Fabric.shim_tx =
        (fun ~src ~dst buf ->
          frames := { time = Scheduler.now sched; src; dst; len = Bytes.length buf } :: !frames;
          Simnet.Fabric.send_raw fabric ~src ~dst buf);
      shim_rx = (fun ~src ~dst buf -> Simnet.Fabric.deliver fabric ~src ~dst buf);
    };
  fun () -> Array.of_list (List.rev !frames)

type cost = {
  ns : int;
  words : float;
  events : int;
  heap_peak : int;
  delivered : int;
}

let measure sched f =
  Gc.full_major ();
  let w0 = Span.alloc_words () in
  let t0 = Span.now_ns () in
  f ();
  let ns = Span.now_ns () - t0 in
  let words = Span.alloc_words () -. w0 in
  (ns, words, Scheduler.events_processed sched, Scheduler.heap_peak sched)

(* Inject [frames] in capture order, each at its captured time, from one
   self-rescheduling injector: the heap holds the in-flight traffic, not
   the whole schedule. *)
let inject sched frames send =
  let n = Array.length frames in
  let rec at i () =
    let now = frames.(i).time in
    let j = ref i in
    while !j < n && frames.(!j).time = now do
      send frames.(!j);
      incr j
    done;
    if !j < n then Scheduler.at sched frames.(!j).time (at !j)
  in
  if n > 0 then Scheduler.at sched frames.(0).time (at 0)

let fresh_world ~seed (shape : Common.shape) =
  Runtime.create_world ~seed ~topology:shape.topology ~transport:shape.transport
    ~domains:1 ~env_faults:false ~nodes:shape.nodes ()

let fabric_replay ~seed shape frames =
  let w = fresh_world ~seed shape in
  let fabric = w.Runtime.fabric and sched = w.Runtime.sched in
  let delivered = ref 0 in
  Array.iter
    (fun f ->
      if not (Simnet.Fabric.is_registered fabric f.dst) then
        Simnet.Fabric.register fabric f.dst (fun ~src:_ _ -> incr delivered))
    frames;
  let bufs = Hashtbl.create 16 in
  let buf len =
    match Hashtbl.find_opt bufs len with
    | Some b -> b
    | None ->
      let b = Bytes.make len '\x5a' in
      Hashtbl.replace bufs len b;
      b
  in
  Array.iter (fun f -> ignore (buf f.len)) frames;
  inject sched frames (fun f ->
      Simnet.Fabric.send fabric ~src:f.src ~dst:f.dst (Hashtbl.find bufs f.len));
  let ns, words, events, heap_peak = measure sched (fun () -> Runtime.run w) in
  let hops =
    Array.fold_left
      (fun acc f ->
        acc
        + max 1
            (Array.length
               (Simnet.Fabric.route fabric ~src:f.src.Simnet.Proc_id.nid
                  ~dst:f.dst.Simnet.Proc_id.nid)))
      0 frames
  in
  ({ ns; words; events; heap_peak; delivered = !delivered }, hops)

(* [events] no-op events with [depth] of them pending at a time: the
   engine's heap push/pop and dispatch, nothing else. *)
let engine_replay ~seed ~events ~depth =
  let sched = Scheduler.create ~seed () in
  let deltas = Array.init 1024 (fun i -> 1 + (Common.mix2 seed i land 0xFFFF)) in
  let depth = max 1 (min depth events) in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired + depth <= events then
      Scheduler.after sched deltas.(!fired land 1023) tick
  in
  for i = 0 to depth - 1 do
    Scheduler.at sched deltas.(i land 1023) tick
  done;
  let ns, words, events, heap_peak = measure sched (fun () -> Scheduler.run sched) in
  { ns; words; events; heap_peak; delivered = !fired }

(* Captured frames come from a lossless round, which carries no CRC
   trailer; a replay with [~crc:true] adds one through Integrity. *)
let payload_len f = max 0 (f.len - Portals.Wire.header_size)

let ni_options =
  {
    Portals.Md.default_options with
    Portals.Md.op_put = true;
    manage_remote = true;
    truncate = true;
    ack_disable = true;
  }

(* Every captured frame re-sent as a Portals put of its payload size,
   accepted by one wildcard match entry at the target. Returns the cost
   and the mean host time of one Ni.create. *)
let ni_replay ~seed ~crc shape frames =
  Simnet.Integrity.with_enabled crc @@ fun () ->
  let w = fresh_world ~seed shape in
  let sched = w.Runtime.sched in
  let max_len = Array.fold_left (fun acc f -> max acc (payload_len f)) 8 frames in
  let nis = Hashtbl.create 64 in
  let init_ns = ref 0 in
  let ni pid =
    match Hashtbl.find_opt nis pid with
    | Some x -> x
    | None ->
      let t0 = Span.now_ns () in
      let ni = Portals.Ni.create w.Runtime.transport ~id:pid () in
      init_ns := !init_ns + (Span.now_ns () - t0);
      let ok = function Ok v -> v | Error _ -> failwith "Layers.ni_replay: set-up failed" in
      let me =
        ok
          (Portals.Ni.me_attach ni ~portal_index:0 ~match_id:Portals.Match_id.any
             ~match_bits:Portals.Match_bits.zero ~ignore_bits:Portals.Match_bits.all_ones
             ~unlink:Portals.Md.Retain ())
      in
      ignore
        (ok
           (Portals.Ni.md_attach ni ~me
              (Portals.Ni.md_spec ~options:ni_options ~unlink:Portals.Md.Retain
                 (Bytes.create max_len))));
      let md = ok (Portals.Ni.md_bind ni (Portals.Ni.md_spec (Bytes.make max_len '\x5a'))) in
      Hashtbl.replace nis pid (ni, md);
      (ni, md)
  in
  Array.iter (fun f -> ignore (ni f.src); ignore (ni f.dst)) frames;
  inject sched frames (fun f ->
      let ni, md = Hashtbl.find nis f.src in
      match
        Portals.Ni.put ni ~md ~ack:false ~length:(payload_len f)
          (Portals.Ni.op ~cookie:Portals.Acl.default_cookie_system ~target:f.dst
             ~portal_index:0 ())
      with
      | Ok () -> ()
      | Error _ -> failwith "Layers.ni_replay: put refused");
  let ns, words, events, heap_peak = measure sched (fun () -> Runtime.run w) in
  let delivered =
    Hashtbl.fold (fun _ (ni, _) acc -> acc + (Portals.Ni.counters ni).Portals.Ni.messages_received) nis 0
  in
  let inits = Hashtbl.length nis in
  ( { ns; words; events; heap_peak; delivered },
    if inits = 0 then 0. else float_of_int !init_ns /. float_of_int inits )

(* Wire.encode and Wire.decode of put frames at the captured payload
   sizes, repeated until [min_ns] of encoding has been timed. Returns
   (encode ns, decode ns, words) per frame. *)
let wire_bench ~crc ~min_ns frames =
  Simnet.Integrity.with_enabled crc @@ fun () ->
  let stride = max 1 (Array.length frames / 2048) in
  let msgs =
    List.init
      ((Array.length frames + stride - 1) / stride)
      (fun k ->
        let f = frames.(k * stride) in
        Portals.Wire.put_request ~initiator:f.src ~target:f.dst ~portal_index:0
          ~cookie:Portals.Acl.default_cookie_system ~match_bits:Portals.Match_bits.zero
          ~offset:0 ~md_handle:Portals.Handle.none ~eq_handle:Portals.Handle.none
          ~data:(Bytes.make (payload_len f) '\x5a') ())
    |> Array.of_list
  in
  if Array.length msgs = 0 then (0., 0., 0.)
  else begin
    let enc_ns = ref 0 and dec_ns = ref 0 and words = ref 0. and frames_done = ref 0 in
    while !enc_ns < min_ns do
      let w0 = Span.alloc_words () in
      let t0 = Span.now_ns () in
      let images = Array.map Portals.Wire.encode msgs in
      let t1 = Span.now_ns () in
      Array.iter
        (fun b ->
          match Portals.Wire.decode b with
          | Ok _ -> ()
          | Error _ -> failwith "Layers.wire_bench: frame did not round-trip")
        images;
      let t2 = Span.now_ns () in
      words := !words +. (Span.alloc_words () -. w0);
      enc_ns := !enc_ns + (t1 - t0);
      dec_ns := !dec_ns + (t2 - t1);
      frames_done := !frames_done + Array.length msgs
    done;
    let n = float_of_int !frames_done in
    (float_of_int !enc_ns /. n, float_of_int !dec_ns /. n, !words /. n)
  end

(* Scheduler + Fabric.create for one world shape: the fabric's share of
   set-up time and memory. *)
let fabric_setup ~seed (shape : Common.shape) =
  let profile =
    match shape.transport with
    | Runtime.Offload -> Simnet.Profile.myrinet_mcp
    | Runtime.Kernel_interrupt | Runtime.Rtscts -> Simnet.Profile.myrinet_kernel
  in
  Gc.full_major ();
  let w0 = Span.alloc_words () in
  let t0 = Span.now_ns () in
  let sched = Scheduler.create ~seed () in
  let fabric =
    Simnet.Fabric.create ~topology:shape.topology sched ~profile ~nodes:shape.nodes
  in
  let ns = Span.now_ns () - t0 in
  let words = Span.alloc_words () -. w0 in
  ignore (Sys.opaque_identity fabric);
  (ns, words)
