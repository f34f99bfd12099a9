open Sim_engine
open Simnet

let proc_id_tests =
  [
    Alcotest.test_case "equality and ordering" `Quick (fun () ->
        let a = Proc_id.make ~nid:1 ~pid:2 in
        let b = Proc_id.make ~nid:1 ~pid:2 in
        let c = Proc_id.make ~nid:2 ~pid:0 in
        Alcotest.(check bool) "equal" true (Proc_id.equal a b);
        Alcotest.(check bool) "not equal" false (Proc_id.equal a c);
        Alcotest.(check bool) "nid dominates" true (Proc_id.compare a c < 0);
        Alcotest.(check string) "pp" "1:2" (Proc_id.to_string a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compare consistent with equal" ~count:300
         QCheck.(quad small_nat small_nat small_nat small_nat)
         (fun (n1, p1, n2, p2) ->
           let a = Proc_id.make ~nid:n1 ~pid:p1 in
           let b = Proc_id.make ~nid:n2 ~pid:p2 in
           Proc_id.equal a b = (Proc_id.compare a b = 0)));
  ]

let profile_tests =
  [
    Alcotest.test_case "packet math" `Quick (fun () ->
        let p = Profile.myrinet_mcp in
        Alcotest.(check int) "zero-len still one packet" 1
          (Profile.packets_of_len p 0);
        Alcotest.(check int) "exact fit" 1 (Profile.packets_of_len p p.Profile.mtu);
        Alcotest.(check int) "one over" 2
          (Profile.packets_of_len p (p.Profile.mtu + 1));
        Alcotest.(check int) "wire bytes include headers"
          (50_000 + (13 * p.Profile.packet_header))
          (Profile.wire_bytes_of_len p 50_000));
    Alcotest.test_case "tx_time scales with length" `Quick (fun () ->
        let p = Profile.myrinet_mcp in
        Alcotest.(check bool) "monotone" true
          (Profile.tx_time p 100_000 > Profile.tx_time p 1_000));
    Alcotest.test_case "presets ordered by overhead" `Quick (fun () ->
        Alcotest.(check bool) "kernel interrupt cost visible" true
          (Profile.myrinet_kernel.Profile.host_interrupt_cost
          = Profile.myrinet_mcp.Profile.host_interrupt_cost);
        Alcotest.(check bool) "tcp slowest syscall" true
          (Profile.tcp_reference.Profile.host_syscall_cost
          > Profile.myrinet_mcp.Profile.host_syscall_cost));
  ]

let link_tests =
  [
    Alcotest.test_case "idle link starts now" `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.at sched 100 (fun () ->
            let link = Link.create sched in
            Alcotest.(check int) "completion" 150 (Link.occupy link 50));
        Scheduler.run sched);
    Alcotest.test_case "busy link serialises" `Quick (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create sched in
        Alcotest.(check int) "first" 50 (Link.occupy link 50);
        Alcotest.(check int) "second queues" 80 (Link.occupy link 30);
        Alcotest.(check int) "busy time" 80 (Link.busy_time link));
    Alcotest.test_case "gap is skipped" `Quick (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create sched in
        ignore (Link.occupy link 10);
        Scheduler.at sched 100 (fun () ->
            Alcotest.(check int) "starts at now" 105 (Link.occupy link 5));
        Scheduler.run sched;
        Alcotest.(check int) "busy excludes idle gap" 15 (Link.busy_time link));
  ]

(* In these tests bandwidth is 1e9 B/s so one byte costs one nanosecond:
   transmit times are readable integers. *)
let ns_per_byte = 1e9

let link_contention_tests =
  [
    Alcotest.test_case "saturated shared link serialises two flows" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create ~bandwidth:ns_per_byte sched in
        (match Link.transmit link ~flow:1 ~bytes:1000 () with
        | `Accepted t -> Alcotest.(check int) "first owns the wire" 1000 t
        | `Dropped -> Alcotest.fail "first transmit dropped");
        (match Link.transmit link ~flow:2 ~bytes:1000 () with
        | `Accepted t ->
          Alcotest.(check int) "second queues behind" 2000 t;
          (* The caller's follow-up (next hop or delivery) at the
             arrival, as [transmit]'s contract asks. *)
          Scheduler.at sched t ignore
        | `Dropped -> Alcotest.fail "second transmit dropped");
        Alcotest.(check int) "both outstanding" 2 (Link.queue_depth link);
        Alcotest.(check int) "peak depth" 2 (Link.peak_queue_depth link);
        Alcotest.(check int) "two concurrent flows" 2 (Link.peak_flows link);
        Scheduler.run sched;
        Alcotest.(check int) "drained" 0 (Link.queue_depth link);
        Alcotest.(check int) "busy covers both" 2000 (Link.busy_time link));
    Alcotest.test_case "per-hop latency lands after serialisation" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link =
          Link.create ~bandwidth:ns_per_byte ~latency:500 sched
        in
        (match Link.transmit link ~bytes:1000 () with
        | `Accepted t -> Alcotest.(check int) "tx + latency" 1500 t
        | `Dropped -> Alcotest.fail "dropped");
        Scheduler.run sched);
    Alcotest.test_case "queue limit turns overload into drops" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create ~bandwidth:ns_per_byte ~queue_limit:2 sched in
        let seen = ref None in
        Link.on_congestion link (fun c -> seen := Some c);
        let accepted = ref 0 and dropped = ref 0 in
        for _ = 1 to 3 do
          match Link.transmit link ~bytes:100 () with
          | `Accepted t ->
            incr accepted;
            Scheduler.at sched t ignore
          | `Dropped -> incr dropped
        done;
        Alcotest.(check int) "two fit" 2 !accepted;
        Alcotest.(check int) "third dropped" 1 !dropped;
        Alcotest.(check int) "counted" 1 (Link.congestion_drops link);
        (match !seen with
        | Some c ->
          Alcotest.(check int) "hook saw the full queue" 2 c.Link.cong_depth;
          Alcotest.(check int) "hook saw the bytes" 100 c.Link.cong_bytes
        | None -> Alcotest.fail "congestion hook not called");
        Scheduler.run sched;
        (* Once the queue drains the link accepts again. *)
        match Link.transmit link ~bytes:100 () with
        | `Accepted _ -> ()
        | `Dropped -> Alcotest.fail "drained link still dropping");
    Alcotest.test_case "queue limit enforced without tracking" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create ~bandwidth:ns_per_byte ~queue_limit:1 sched in
        (match Link.transmit link ~bytes:10 () with
        | `Accepted _ -> ()
        | `Dropped -> Alcotest.fail "first dropped");
        (match Link.transmit link ~bytes:10 () with
        | `Accepted _ -> Alcotest.fail "limit ignored"
        | `Dropped -> ());
        Scheduler.run sched);
    (* A transmission leaves the link's books at the point a release
       callback scheduled by [transmit] would have run, so a transmit at
       exactly the first one's completion sees the queue as that
       callback's position in the same-instant order dictates. *)
    Alcotest.test_case "same-instant tie follows scheduling order" `Quick
      (fun () ->
        let second ~probe_first =
          let sched = Scheduler.create () in
          let link = Link.create ~bandwidth:ns_per_byte ~queue_limit:1 sched in
          let result = ref None in
          let probe () = result := Some (Link.transmit link ~bytes:10 ()) in
          if probe_first then Scheduler.at sched 100 probe;
          (match Link.transmit link ~bytes:100 () with
          | `Accepted t -> Alcotest.(check int) "first completes" 100 t
          | `Dropped -> Alcotest.fail "first dropped");
          if not probe_first then Scheduler.at sched 100 probe;
          Scheduler.run sched;
          match !result with
          | Some r -> r
          | None -> Alcotest.fail "probe did not run"
        in
        Alcotest.(check bool) "scheduled before the first transmit: dropped"
          true
          (second ~probe_first:true = `Dropped);
        Alcotest.(check bool) "scheduled after it: accepted" true
          (second ~probe_first:false = `Accepted 110));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lazy release matches release events"
         ~count:300
         QCheck.(
           pair (int_range 0 3)
             (list_of_size (Gen.int_range 1 40)
                (triple (int_range 0 6) (int_range 0 12) (int_range 0 2))))
         (fun (limit, probes) ->
           (* Reference model: the bookkeeping driven by one release
              callback per accepted transmission, scheduled right after
              the transmit. Probes (instant, bytes, flow) land on
              coarse instants so same-instant ties are common. *)
           let sched = Scheduler.create () in
           let queue_limit = if limit = 0 then None else Some limit in
           let link = Link.create ~bandwidth:ns_per_byte ?queue_limit sched in
           let depth = ref 0 and flows = Hashtbl.create 4 in
           let peak = ref 0 and peak_flows = ref 0 in
           let ok = ref true in
           List.iter
             (fun (slot, bytes, flow) ->
               Scheduler.at sched (10 * slot) (fun () ->
                   let expect_drop =
                     match queue_limit with
                     | Some l -> !depth >= l
                     | None -> false
                   in
                   (match Link.transmit link ~flow ~bytes () with
                   | `Dropped -> if not expect_drop then ok := false
                   | `Accepted at ->
                     if expect_drop then ok := false;
                     incr depth;
                     peak := max !peak !depth;
                     let n = Option.value ~default:0 (Hashtbl.find_opt flows flow) in
                     Hashtbl.replace flows flow (n + 1);
                     peak_flows := max !peak_flows (Hashtbl.length flows);
                     Scheduler.at sched at (fun () ->
                         decr depth;
                         match Hashtbl.find flows flow with
                         | 1 -> Hashtbl.remove flows flow
                         | n -> Hashtbl.replace flows flow (n - 1)));
                   if Link.queue_depth link <> !depth then ok := false))
             probes;
           Scheduler.run sched;
           !ok
           && Link.queue_depth link = !depth
           && Link.peak_queue_depth link = !peak
           && Link.peak_flows link = !peak_flows));
    Alcotest.test_case "queue depth between runs" `Quick (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create ~bandwidth:ns_per_byte sched in
        Scheduler.at sched 100 ignore;
        ignore (Link.transmit link ~flow:1 ~bytes:100 ());
        let inside = ref (-1) in
        Scheduler.at sched 200 (fun () -> inside := Link.queue_depth link);
        Alcotest.(check int) "outstanding before any run" 1
          (Link.queue_depth link);
        Scheduler.run ~until:150 sched;
        (* The batch at 100 completed, so the transmission finishing at
           100 is released even though its mark follows that batch's
           only event. *)
        Alcotest.(check int) "now" 100 (Scheduler.now sched);
        Alcotest.(check int) "released once its instant has run" 0
          (Link.queue_depth link);
        ignore (Link.transmit link ~flow:2 ~bytes:100 ());
        Scheduler.run ~until:150 sched;
        Alcotest.(check int) "still serialising" 1 (Link.queue_depth link);
        Scheduler.run sched;
        Alcotest.(check int) "event at the finish, queued earlier, sees it" 1
          !inside;
        Alcotest.(check int) "released after the batch" 0 (Link.queue_depth link);
        Alcotest.(check int) "flows never overlapped" 1 (Link.peak_flows link);
        Alcotest.(check int) "no scheduler events of its own" 2
          (Scheduler.events_processed sched));
  ]

let topology_tests =
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  [
    Alcotest.test_case "spec parsing round-trips through describe" `Quick
      (fun () ->
        let check spec nodes expect =
          Alcotest.(check string) spec expect
            (Topology.describe (Topology.of_spec ~nodes spec))
        in
        check "full" 16 "full";
        check "ring" 5 "ring";
        check "torus2d" 16 "torus2d:4x4";
        check "torus2d:2x8" 16 "torus2d:2x8";
        check "torus3d" 8 "torus3d:2x2x2";
        check "fattree" 16 "fattree:4";
        check "fattree:4" 16 "fattree:4");
    Alcotest.test_case "bad specs rejected" `Quick (fun () ->
        rejects "dims must match nodes" (fun () ->
            Topology.of_spec ~nodes:8 "torus2d:4x4");
        rejects "fat-tree needs k^3/4 hosts" (fun () ->
            Topology.of_spec ~nodes:6 "fattree");
        rejects "unknown shape" (fun () -> Topology.of_spec ~nodes:8 "mesh");
        rejects "ring of one" (fun () -> Topology.build Ring ~nodes:1));
    Alcotest.test_case "full keeps the seed's empty hop graph" `Quick
      (fun () ->
        let t = Topology.build Full ~nodes:8 in
        Alcotest.(check int) "no switches" 8 (Topology.vertex_count t);
        Alcotest.(check int) "no shared links" 0 (Topology.link_count t);
        Alcotest.(check int) "all nodes adjacent" 7
          (List.length (Topology.neighbors t 0)));
    Alcotest.test_case "4x4 torus structure" `Quick (fun () ->
        let t = Topology.build (Torus2d (4, 4)) ~nodes:16 in
        Alcotest.(check int) "hosts only" 16 (Topology.vertex_count t);
        Alcotest.(check int) "4 directed links per node" 64
          (Topology.link_count t);
        for v = 0 to 15 do
          Alcotest.(check int) "degree 4" 4
            (List.length (Topology.neighbors t v))
        done;
        (* Every link id agrees with the adjacency index. *)
        for l = 0 to Topology.link_count t - 1 do
          let { Topology.link_id; src_v; dst_v } = Topology.link t l in
          Alcotest.(check int) "dense ids" l link_id;
          Alcotest.(check (option int)) "find_link inverts" (Some l)
            (Topology.find_link t ~src_v ~dst_v)
        done);
    Alcotest.test_case "size-2 dimensions do not double links" `Quick
      (fun () ->
        let t = Topology.build (Torus2d (2, 2)) ~nodes:4 in
        Alcotest.(check int) "degree 2" 2 (List.length (Topology.neighbors t 0));
        Alcotest.(check int) "8 directed links" 8 (Topology.link_count t));
    Alcotest.test_case "coords round-trip" `Quick (fun () ->
        let t = Topology.build (Torus3d (2, 3, 4)) ~nodes:24 in
        Alcotest.(check (list int)) "dims" [ 2; 3; 4 ] (Topology.dims t);
        for v = 0 to 23 do
          Alcotest.(check int) "of_coords inverts coords" v
            (Topology.of_coords t (Topology.coords t v))
        done);
    Alcotest.test_case "4-ary fat-tree structure" `Quick (fun () ->
        let t = Topology.build (Fat_tree 4) ~nodes:16 in
        Alcotest.(check int) "hosts" 16 (Topology.nodes t);
        (* 16 hosts + 8 edge + 8 agg + 4 core switches. *)
        Alcotest.(check int) "vertices" 36 (Topology.vertex_count t);
        for h = 0 to 15 do
          match Topology.neighbors t h with
          | [ sw ] ->
            Alcotest.(check bool) "host hangs off one edge switch" true
              (sw >= 16)
          | l ->
            Alcotest.failf "host %d has %d neighbours" h (List.length l)
        done);
  ]

(* The changed coordinate between two adjacent torus path vertices; the
   step must move exactly one dimension by one (with wraparound). *)
let changed_dim topo a b =
  let ca = Topology.coords topo a and cb = Topology.coords topo b in
  let ds = Topology.dims topo in
  let changed =
    List.filteri (fun i _ -> List.nth ca i <> List.nth cb i) ds
    |> List.length
  in
  if changed <> 1 then None
  else
    let rec find i = function
      | [] -> assert false
      | (x, y) :: rest -> if x <> y then i else find (i + 1) rest
    in
    Some (find 0 (List.combine ca cb))

let router_tests =
  let torus = Topology.build (Torus2d (4, 4)) ~nodes:16 in
  let torus3 = Topology.build (Torus3d (2, 3, 4)) ~nodes:24 in
  let check_dimension_order topo (src, dst) =
    let path = Router.path_vertices topo ~src ~dst in
    let hops = Router.hop_count topo ~src ~dst in
    (* Minimal: matches the analytic shortest distance. *)
    hops = Router.min_torus_hops topo ~src ~dst
    (* Simple: no vertex visited twice (so no cycle, no livelock). *)
    && List.length (List.sort_uniq compare path) = List.length path
    (* Dimension-ordered: corrected dimensions never decrease, the
       acyclic-channel-dependency argument for deadlock freedom. *)
    &&
    let rec dims_of = function
      | a :: (b :: _ as rest) -> (
        match changed_dim topo a b with
        | Some d -> d :: dims_of rest
        | None -> [ max_int ] (* illegal step: fails the sorted check *))
      | _ -> []
    in
    let ds = dims_of path in
    List.sort compare ds = ds
  in
  let pair n =
    QCheck.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"2-D torus routing is minimal, simple and dimension-ordered"
         (pair 16)
         (check_dimension_order torus));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"3-D torus routing is minimal, simple and dimension-ordered"
         (pair 24)
         (check_dimension_order torus3));
    Alcotest.test_case "ring takes the shorter way, ties positive" `Quick
      (fun () ->
        let ring = Topology.build Ring ~nodes:8 in
        Alcotest.(check int) "forward" 3 (Router.hop_count ring ~src:0 ~dst:3);
        Alcotest.(check int) "backward" 3 (Router.hop_count ring ~src:0 ~dst:5);
        Alcotest.(check (list int)) "tie breaks positive" [ 0; 1; 2; 3; 4 ]
          (Router.path_vertices ring ~src:0 ~dst:4));
    Alcotest.test_case "full topology routes have no hops" `Quick (fun () ->
        let full = Topology.build Full ~nodes:8 in
        Alcotest.(check int) "direct" 0 (Array.length (Router.route full ~src:0 ~dst:5));
        Alcotest.(check (list int)) "private wire, no shared hops" [ 0; 5 ]
          (Router.path_vertices full ~src:0 ~dst:5));
    Alcotest.test_case "fat-tree routes are valid and deterministic" `Quick
      (fun () ->
        let ft = Topology.build (Fat_tree 4) ~nodes:16 in
        for src = 0 to 15 do
          for dst = 0 to 15 do
            if src <> dst then begin
              let links = Router.route ft ~src ~dst in
              let verts = Router.path_vertices ft ~src ~dst in
              Alcotest.(check int) "one more vertex than hop"
                (Array.length links + 1)
                (List.length verts);
              Alcotest.(check int) "starts at src" src (List.hd verts);
              Alcotest.(check int) "ends at dst" dst
                (List.nth verts (List.length verts - 1));
              (* Each link really wires its two path vertices. *)
              Array.iteri
                (fun i l ->
                  let lk = Topology.link ft l in
                  Alcotest.(check int) "hop src" (List.nth verts i)
                    lk.Topology.src_v;
                  Alcotest.(check int) "hop dst"
                    (List.nth verts (i + 1))
                    lk.Topology.dst_v)
                links;
              Alcotest.(check bool) "at most host-edge-agg-core-agg-edge-host"
                true
                (Array.length links <= 6);
              Alcotest.(check bool) "same pair, same path" true
                (Router.route ft ~src ~dst = links)
            end
          done
        done);
  ]

let mk_fabric ?(nodes = 4) ?(profile = Profile.myrinet_mcp) () =
  let sched = Scheduler.create () in
  (sched, Fabric.create sched ~profile ~nodes)

let pid nid p = Proc_id.make ~nid ~pid:p

let fabric_tests =
  [
    Alcotest.test_case "delivers payload to registered handler" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let got = ref None in
        Fabric.register fabric (pid 1 0) (fun ~src payload ->
            got := Some (src, Bytes.to_string payload));
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "hello");
        Scheduler.run sched;
        Alcotest.(check (option (pair string string)))
          "delivered"
          (Some ("0:0", "hello"))
          (Option.map (fun (s, d) -> (Proc_id.to_string s, d)) !got));
    Alcotest.test_case "delivery takes wire latency plus serialisation" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let profile = Fabric.profile fabric in
        let arrival = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ ->
            arrival := Scheduler.now sched);
        let payload = Bytes.create 4096 in
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) payload;
        Scheduler.run sched;
        let expect =
          Time_ns.add (Profile.tx_time profile 4096) profile.Profile.wire_latency
        in
        Alcotest.(check int) "arrival" expect !arrival);
    Alcotest.test_case "per-sender messages stay ordered" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let got = ref [] in
        Fabric.register fabric (pid 1 0) (fun ~src:_ payload ->
            got := Bytes.to_string payload :: !got);
        (* Mix of sizes: a big message then small ones; serialisation on the
           sender link must preserve order. *)
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.make 100_000 'a');
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "b");
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "c");
        Scheduler.run sched;
        Alcotest.(check (list string)) "order"
          [ String.make 100_000 'a'; "b"; "c" ]
          (List.rev !got));
    Alcotest.test_case "unregistered destination counts a drop" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 3 7) (Bytes.of_string "x");
        Scheduler.run sched;
        let s = Fabric.stats fabric in
        Alcotest.(check int) "sent" 1 s.Fabric.messages_sent;
        Alcotest.(check int) "dropped" 1 s.Fabric.drops_unregistered;
        Alcotest.(check int) "delivered" 0 s.Fabric.messages_delivered);
    Alcotest.test_case "fault injector drops selected messages" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Fabric.set_fault_injector fabric
          (Some (fun ~src:_ ~dst:_ ~len -> len > 10));
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.make 100 'x');
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "ok");
        Scheduler.run sched;
        Alcotest.(check int) "one survived" 1 !seen;
        Alcotest.(check int) "one dropped" 1 (Fabric.stats fabric).Fabric.drops_injected);
    Alcotest.test_case "duplicate registration rejected" `Quick (fun () ->
        let _sched, fabric = mk_fabric () in
        Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> ());
        Alcotest.check_raises "dup"
          (Invalid_argument "Fabric.register: already registered: 0:0")
          (fun () -> Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> ())));
    Alcotest.test_case "unregister then send drops" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> Alcotest.fail "gone");
        Fabric.unregister fabric (pid 1 0);
        Alcotest.(check bool) "unregistered" false
          (Fabric.is_registered fabric (pid 1 0));
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "x");
        Scheduler.run sched;
        Alcotest.(check int) "drop" 1 (Fabric.stats fabric).Fabric.drops_unregistered);
    Alcotest.test_case "out of range node rejected" `Quick (fun () ->
        let _sched, fabric = mk_fabric ~nodes:2 () in
        Alcotest.check_raises "range"
          (Invalid_argument "Fabric.node: nid 5 out of range") (fun () ->
            ignore (Fabric.node fabric 5)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"all sent messages accounted for" ~count:100
         QCheck.(list_of_size Gen.(int_range 0 30) (int_range 0 5_000))
         (fun sizes ->
           let sched, fabric = mk_fabric () in
           let delivered = ref 0 in
           Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr delivered);
           let send len =
             Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create len)
           in
           List.iter send sizes;
           Scheduler.run sched;
           let s = Fabric.stats fabric in
           !delivered = List.length sizes
           && s.Fabric.messages_sent = List.length sizes
           && s.Fabric.bytes_sent = List.fold_left ( + ) 0 sizes));
  ]

(* Words allocated by [Fabric.create] alone, per node, on a [side]² torus. *)
let create_words_per_node side =
  let sched = Scheduler.create () in
  let nodes = side * side in
  let before = Gc.allocated_bytes () in
  let fabric =
    Fabric.create ~topology:(Topology.Torus2d (side, side)) sched
      ~profile:Profile.myrinet_mcp ~nodes
  in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  ignore (Sys.opaque_identity fabric);
  words /. float_of_int nodes

let fabric_topology_tests =
  [
    Alcotest.test_case "create allocates O(nodes), not O(nodes^2)" `Quick
      (fun () ->
        let small = create_words_per_node 32 and large = create_words_per_node 64 in
        Alcotest.(check bool)
          (Printf.sprintf "words/node %.0f at 1024 nodes, %.0f at 4096" small large)
          true
          (large < 1.25 *. small));
    Alcotest.test_case "explicit Full matches the seed fabric exactly" `Quick
      (fun () ->
        let arrival_on topology =
          let sched = Scheduler.create () in
          let fabric =
            match topology with
            | None -> Fabric.create sched ~profile:Profile.myrinet_mcp ~nodes:4
            | Some k ->
              Fabric.create ~topology:k sched ~profile:Profile.myrinet_mcp
                ~nodes:4
          in
          let arrival = ref 0 in
          Fabric.register fabric (pid 2 0) (fun ~src:_ _ ->
              arrival := Scheduler.now sched);
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0) (Bytes.create 4096);
          Scheduler.run sched;
          (!arrival, Fabric.peak_link_queue_depth fabric)
        in
        let seed = arrival_on None in
        let full = arrival_on (Some Topology.Full) in
        Alcotest.(check (pair int int)) "same timing, no hop links" seed full);
    Alcotest.test_case "multi-hop delivery pays store-and-forward per hop"
      `Quick (fun () ->
        let profile = Profile.myrinet_mcp in
        let arrival_on topology dst =
          let sched = Scheduler.create () in
          let fabric =
            Fabric.create ~topology sched ~profile ~nodes:8
          in
          let arrival = ref 0 in
          Fabric.register fabric (pid dst 0) (fun ~src:_ _ ->
              arrival := Scheduler.now sched);
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid dst 0)
            (Bytes.create 4096);
          Scheduler.run sched;
          !arrival
        in
        let direct = arrival_on Topology.Full 2 in
        let one_hop = arrival_on Topology.Ring 1 in
        let two_hops = arrival_on Topology.Ring 2 in
        Alcotest.(check bool) "one ring hop = private wire" true
          (one_hop = direct);
        (* An uncontended store-and-forward path costs exactly one extra
           (serialisation + latency) per extra hop. *)
        Alcotest.(check int) "second hop repeats the cost" (2 * one_hop)
          two_hops);
    Alcotest.test_case "per-pair order survives shared contended hops" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Fabric.create
            ~topology:(Topology.Torus2d (4, 4))
            sched ~profile:Profile.myrinet_mcp ~nodes:16
        in
        let got = ref [] in
        Fabric.register fabric (pid 3 0) (fun ~src payload ->
            if Proc_id.equal src (pid 0 0) then
              got := Bytes.get payload 0 :: !got);
        (* Cross traffic fighting for the same row links. *)
        Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> ());
        for nid = 1 to 15 do
          if nid <> 3 then Fabric.register fabric (pid nid 0) (fun ~src:_ _ -> ());
          Fabric.send fabric ~src:(pid nid 0) ~dst:(pid ((nid + 1) mod 16) 0)
            (Bytes.create 2000)
        done;
        for i = 0 to 9 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 3 0)
            (Bytes.make 100 (Char.chr i))
        done;
        Scheduler.run sched;
        Alcotest.(check (list char)) "in order"
          (List.init 10 Char.chr)
          (List.rev !got);
        Alcotest.(check bool) "hops actually contended" true
          (Fabric.peak_link_queue_depth fabric > 1));
    Alcotest.test_case "a routed hop costs one scheduler event" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Fabric.create
            ~topology:(Topology.Torus2d (4, 4))
            sched ~profile:Profile.myrinet_mcp ~nodes:16
        in
        let delivered = ref 0 in
        for nid = 0 to 15 do
          Fabric.register fabric (pid nid 0) (fun ~src:_ _ -> incr delivered)
        done;
        let hops = ref 0 in
        for src = 0 to 15 do
          for dst = 0 to 15 do
            if src <> dst then begin
              hops := !hops + Array.length (Fabric.route fabric ~src ~dst);
              Fabric.send fabric ~src:(pid src 0) ~dst:(pid dst 0)
                (Bytes.create 256)
            end
          done
        done;
        Scheduler.run sched;
        Alcotest.(check int) "all delivered" 240 !delivered;
        Alcotest.(check bool) "hops contended" true
          (Fabric.peak_link_queue_depth fabric > 1);
        Alcotest.(check int) "events = route hops" !hops
          (Scheduler.events_processed sched));
    Alcotest.test_case "per-hop corruption is shard-independent" `Quick
      (fun () ->
        (* Every delivery's time, source and payload digest, per node, on
           a torus whose far-peer routes cross shard boundaries, under a
           fault model that re-samples corruption on every hop. *)
        let run ~domains =
          Runtime.set_run_env ~fault:"corrupt:0.3" ();
          Fun.protect ~finally:(fun () -> Runtime.set_run_env ~fault:"" ())
          @@ fun () ->
          let nodes = 16 in
          let world =
            Runtime.create_world ~domains ~seed:7
              ~topology:(Topology.Torus2d (4, 4))
              ~nodes ()
          in
          let log = Array.make nodes [] in
          for nid = 0 to nodes - 1 do
            let sched = Runtime.sched_of_nid world nid in
            Fabric.register (Runtime.fabric_of_nid world nid) (pid nid 0)
              (fun ~src payload ->
                log.(nid) <-
                  ( Scheduler.now sched,
                    src.Proc_id.nid,
                    Digest.to_hex (Digest.bytes payload) )
                  :: log.(nid))
          done;
          (* One send every 40 us, so no two messages meet on a link.
             Contended same-instant ties between a local and a
             cross-shard message do not yet resolve as in the sequential
             run; this test is about the flight record, not that. *)
          for nid = 0 to nodes - 1 do
            let fabric = Runtime.fabric_of_nid world nid in
            for k = 1 to 3 do
              Scheduler.at
                (Runtime.sched_of_nid world nid)
                (Time_ns.us (40. *. float_of_int ((3 * nid) + k)))
                (fun () ->
                  Fabric.send fabric ~src:(pid nid 0)
                    ~dst:(pid ((nid + (5 * k)) mod nodes) 0)
                    (Bytes.init 64 (fun i -> Char.chr ((nid + i + k) land 255))))
            done
          done;
          Runtime.run world;
          let corrupts =
            Array.fold_left
              (fun acc f -> acc + (Fabric.stats f).Fabric.corrupts_injected)
              0 (Runtime.shard_fabrics world)
          in
          (Array.to_list (Array.map List.rev log), corrupts)
        in
        let seq_log, seq_corrupts = run ~domains:1 in
        let par_log, par_corrupts = run ~domains:2 in
        Alcotest.(check bool) "some hops corrupted" true (seq_corrupts > 0);
        Alcotest.(check int) "same corruptions" seq_corrupts par_corrupts;
        Alcotest.(check (list (list (triple int int string))))
          "same deliveries, byte for byte" seq_log par_log);
    Alcotest.test_case "queue limit surfaces as congestion drops" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Fabric.create ~topology:Topology.Ring ~queue_limit:2 sched
            ~profile:Profile.myrinet_mcp ~nodes:4
        in
        let delivered = ref 0 in
        Fabric.register fabric (pid 2 0) (fun ~src:_ _ -> incr delivered);
        for _ = 1 to 20 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0) (Bytes.create 4096)
        done;
        Scheduler.run sched;
        let s = Fabric.stats fabric in
        Alcotest.(check int) "sent" 20 s.Fabric.messages_sent;
        Alcotest.(check bool) "overload dropped" true
          (s.Fabric.drops_congested > 0);
        Alcotest.(check int) "the rest got through"
          (20 - s.Fabric.drops_congested)
          !delivered;
        Alcotest.(check bool) "queue hit its bound" true
          (Fabric.peak_link_queue_depth fabric >= 2));
  ]

let transport_tests =
  [
    Alcotest.test_case "offload rx never touches host cpu" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let transport = Transport.offload fabric in
        let handled = ref false in
        transport.Transport.register (pid 1 0) (fun ~src:_ _ ->
            transport.Transport.charge_rx 1 (Time_ns.us 5.0);
            handled := true);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
          (Bytes.of_string "msg");
        Scheduler.run sched;
        Alcotest.(check bool) "handled" true !handled;
        let cpu = transport.Transport.host_cpu 1 in
        Alcotest.(check int) "no host cycles" 0 (Cpu.stolen_total cpu));
    Alcotest.test_case "kernel rx interrupts the host cpu" `Quick (fun () ->
        let sched, fabric = mk_fabric ~profile:Profile.myrinet_kernel () in
        let transport = Transport.kernel_interrupt fabric in
        let handled = ref false in
        transport.Transport.register (pid 1 0) (fun ~src:_ _ ->
            transport.Transport.charge_rx 1 (Time_ns.us 5.0);
            handled := true);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
          (Bytes.of_string "msg");
        Scheduler.run sched;
        Alcotest.(check bool) "handled" true !handled;
        let cpu = transport.Transport.host_cpu 1 in
        let expected =
          Time_ns.add Profile.myrinet_kernel.Profile.host_interrupt_cost
            (Time_ns.add (Profile.copy_time Profile.myrinet_kernel 3) (Time_ns.us 5.0))
        in
        Alcotest.(check int) "interrupt + copy + charged cycles stolen" expected
          (Cpu.stolen_total cpu));
    Alcotest.test_case "kernel rx perturbs an in-flight compute" `Quick (fun () ->
        let sched, fabric = mk_fabric ~profile:Profile.myrinet_kernel () in
        let transport = Transport.kernel_interrupt fabric in
        transport.Transport.register (pid 1 0) (fun ~src:_ _ -> ());
        let cpu = transport.Transport.host_cpu 1 in
        let finished = ref 0 in
        Scheduler.spawn sched (fun () ->
            Cpu.compute cpu (Time_ns.ms 1.0);
            finished := Scheduler.now sched);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
          (Bytes.of_string "interrupting");
        Scheduler.run sched;
        Alcotest.(check bool) "compute extended past 1ms" true
          (!finished > Time_ns.ms 1.0));
    Alcotest.test_case "offload vs kernel cost parameters" `Quick (fun () ->
        let _, fabric_mcp = mk_fabric () in
        let _, fabric_k = mk_fabric ~profile:Profile.myrinet_kernel () in
        let off = Transport.offload fabric_mcp in
        let ker = Transport.kernel_interrupt fabric_k in
        Alcotest.(check bool) "kernel rx fixed cost higher" true
          (ker.Transport.rx_fixed_cost > off.Transport.rx_fixed_cost);
        Alcotest.(check bool) "kernel data path slower" true
          (ker.Transport.data_in_time 100_000 > off.Transport.data_in_time 100_000));
    Alcotest.test_case "small message cannot overtake a large one" `Quick
      (fun () ->
        (* The landing stage (DMA/copy) must serialise per node: a tiny
           message arriving right behind a large one stays behind it. *)
        let check kind profile =
          let sched, fabric = mk_fabric ~profile () in
          let transport =
            match kind with
            | `Offload -> Transport.offload fabric
            | `Kernel -> Transport.kernel_interrupt fabric
          in
          let order = ref [] in
          transport.Transport.register (pid 1 0) (fun ~src:_ payload ->
              order := Bytes.length payload :: !order);
          transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
            (Bytes.create 100_000);
          transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
            (Bytes.create 8);
          Scheduler.run sched;
          Alcotest.(check (list int)) "delivery order" [ 100_000; 8 ]
            (List.rev !order)
        in
        check `Offload Profile.myrinet_mcp;
        check `Kernel Profile.myrinet_kernel);
    Alcotest.test_case "offload delivery preserves payload bytes" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let transport = Transport.offload fabric in
        let payload = Bytes.init 257 (fun i -> Char.chr (i mod 256)) in
        let got = ref Bytes.empty in
        transport.Transport.register (pid 2 1) (fun ~src:_ b -> got := b);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 2 1) payload;
        Scheduler.run sched;
        Alcotest.(check bytes) "payload intact" payload !got);
  ]

let fault_model_tests =
  [
    Alcotest.test_case "bernoulli drops roughly its rate" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.bernoulli ~seed:1 ~p:0.2 ()));
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        for _ = 1 to 500 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8)
        done;
        Scheduler.run sched;
        let dropped = (Fabric.stats fabric).Fabric.drops_injected in
        Alcotest.(check int) "conservation" 500 (!seen + dropped);
        Alcotest.(check bool)
          (Printf.sprintf "dropped %d within [50, 150]" dropped)
          true
          (dropped >= 50 && dropped <= 150));
    Alcotest.test_case "bernoulli replays bit-exactly from its seed" `Quick
      (fun () ->
        let run () =
          let sched, fabric = mk_fabric () in
          Fabric.set_fault_model fabric
            (Some (Fault.bernoulli ~seed:7 ~p:0.3 ()));
          let survivors = ref [] in
          Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
              survivors := Bytes.get b 0 :: !survivors);
          for i = 0 to 99 do
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
              (Bytes.make 4 (Char.chr i))
          done;
          Scheduler.run sched;
          List.rev !survivors
        in
        Alcotest.(check (list char)) "identical survivor set" (run ()) (run ()));
    Alcotest.test_case "gilbert produces burstier losses than bernoulli"
      `Quick (fun () ->
        (* Same long-run loss rate; the Gilbert chain must concentrate its
           drops into longer consecutive runs. *)
        let max_run fault =
          let sched, fabric = mk_fabric () in
          Fabric.set_fault_model fabric (Some fault);
          let n = 2000 in
          let arrived = Array.make n false in
          Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
              arrived.(Bytes.get_uint16_le b 0) <- true);
          for i = 0 to n - 1 do
            let b = Bytes.create 8 in
            Bytes.set_uint16_le b 0 i;
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) b
          done;
          Scheduler.run sched;
          let best = ref 0 and cur = ref 0 in
          Array.iter
            (fun ok ->
              if ok then cur := 0
              else begin
                incr cur;
                best := max !best !cur
              end)
            arrived;
          !best
        in
        let bernoulli_run = max_run (Fault.bernoulli ~seed:3 ~p:0.1 ()) in
        let gilbert_run =
          (* p_enter/(p_enter+p_exit) = 0.0217/(0.0217+0.2) ~ 0.098 steady
             state in Bad, ~5-message mean bursts. *)
          max_run (Fault.gilbert ~seed:3 ~p_enter:0.0217 ~p_exit:0.2 ())
        in
        Alcotest.(check bool)
          (Printf.sprintf "gilbert %d > bernoulli %d" gilbert_run bernoulli_run)
          true
          (gilbert_run > bernoulli_run));
    Alcotest.test_case "duplicator delivers extra copies" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.duplicator ~seed:2 ~p:0.5 ()));
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        for _ = 1 to 100 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8)
        done;
        Scheduler.run sched;
        let dups = (Fabric.stats fabric).Fabric.dups_injected in
        Alcotest.(check bool) "some duplicated" true (dups > 0);
        Alcotest.(check int) "each duplicate adds one arrival" (100 + dups)
          !seen);
    Alcotest.test_case "link flap drops exactly during downtime" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        (* 100 us period, last 40 us down. *)
        Fabric.set_fault_model fabric
          (Some
             (Fault.link_flap ~period:(Time_ns.us 100.)
                ~downtime:(Time_ns.us 40.) ()));
        let seen = ref [] in
        Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
            seen := Bytes.get b 0 :: !seen);
        (* One tiny message every 25 us: phases 0, 25, 50 are up;
           75 is down; repeating. *)
        for i = 0 to 7 do
          Scheduler.after sched
            (Time_ns.us (25. *. float_of_int i))
            (fun () ->
              Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
                (Bytes.make 1 (Char.chr i)))
        done;
        Scheduler.run sched;
        Alcotest.(check (list int))
          "only the down-phase sends are lost"
          [ 0; 1; 2; 4; 5; 6 ]
          (List.rev_map Char.code !seen));
    Alcotest.test_case "flap validates downtime <= period" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Fault.link_flap: downtime must lie within the period")
          (fun () ->
            ignore
              (Fault.link_flap ~period:(Time_ns.us 10.)
                 ~downtime:(Time_ns.us 20.) ())));
    Alcotest.test_case "compose: any drop wins over duplicate" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric
          (Some
             (Fault.compose
                [ Fault.duplicator ~seed:4 ~p:1.0 (); Fault.bernoulli ~seed:5 ~p:1.0 () ]));
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8);
        Scheduler.run sched;
        Alcotest.(check int) "dropped, not duplicated" 0 !seen;
        Alcotest.(check int) "counted as drop" 1
          (Fabric.stats fabric).Fabric.drops_injected);
    Alcotest.test_case "injected drops are counted per (src, dst) pair"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.bernoulli ~seed:1 ~p:1.0 ()));
        for _ = 1 to 3 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8)
        done;
        Fabric.send fabric ~src:(pid 2 0) ~dst:(pid 1 0) (Bytes.create 8);
        (* Pairs with a nonzero pid share the same table as pid-0 pairs. *)
        for _ = 1 to 2 do
          Fabric.send fabric ~src:(pid 3 1) ~dst:(pid 1 2) (Bytes.create 8)
        done;
        Scheduler.run sched;
        let snap = Metrics.snapshot (Scheduler.metrics sched) in
        let count ~src ~dst =
          match
            Metrics.Snapshot.find snap
              ~labels:[ ("src", src); ("dst", dst) ]
              "fabric.drops_injected"
          with
          | Some (Metrics.Snapshot.Counter n) -> n
          | _ -> Alcotest.fail "per-pair counter missing"
        in
        Alcotest.(check int) "pair 0:0 -> 1:0" 3 (count ~src:"0:0" ~dst:"1:0");
        Alcotest.(check int) "pair 2:0 -> 1:0" 1 (count ~src:"2:0" ~dst:"1:0");
        Alcotest.(check int) "pair 3:1 -> 1:2" 2 (count ~src:"3:1" ~dst:"1:2");
        (* The legacy total is derived from the labelled counters. *)
        Alcotest.(check int) "derived total" 6
          (Fabric.stats fabric).Fabric.drops_injected);
  ]

let corruption_delay_tests =
  [
    Alcotest.test_case "corrupt mutates roughly its rate, never loses" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.corrupt ~seed:1 ~p:0.2 ()));
        let clean = ref 0 and damaged = ref 0 in
        let original = Bytes.make 32 'a' in
        Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
            if Bytes.equal b original then incr clean else incr damaged);
        for _ = 1 to 500 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
            (Bytes.copy original)
        done;
        Scheduler.run sched;
        Alcotest.(check int) "every frame still arrives" 500
          (!clean + !damaged);
        let injected = (Fabric.stats fabric).Fabric.corrupts_injected in
        Alcotest.(check bool)
          (Printf.sprintf "injected %d within [50, 150]" injected)
          true
          (injected >= 50 && injected <= 150);
        (* A truncation that keeps the whole frame is still counted as an
           injection, so damaged <= injected, and most injections show. *)
        Alcotest.(check bool) "damage observed" true (!damaged > 0);
        Alcotest.(check bool) "damaged <= injected" true
          (!damaged <= injected));
    Alcotest.test_case "mutate: flip wraps, truncate clamps, fresh buffer"
      `Quick (fun () ->
        let frame = Bytes.make 4 '\x00' in
        let flipped = Fault.mutate (Fault.Flip { bit = 32 }) frame in
        Alcotest.(check bool) "original untouched" true
          (Bytes.equal frame (Bytes.make 4 '\x00'));
        Alcotest.(check int) "bit 32 wraps to bit 0" 1
          (Bytes.get_uint8 flipped 0);
        let cut = Fault.mutate (Fault.Truncate { keep = 2 }) frame in
        Alcotest.(check int) "truncated" 2 (Bytes.length cut);
        let over = Fault.mutate (Fault.Truncate { keep = 9 }) frame in
        Alcotest.(check int) "overlong keep clamps" 4 (Bytes.length over));
    Alcotest.test_case "delay adds latency but keeps per-pair FIFO" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric
          (Some
             (Fault.delay ~seed:3 ~mean:(Time_ns.us 30.)
                ~jitter:(Time_ns.us 30.) ()));
        let seen = ref [] in
        Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
            seen := Bytes.get_uint8 b 0 :: !seen);
        for i = 0 to 49 do
          Scheduler.at sched
            (Time_ns.us (float_of_int i))
            (fun () ->
              Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
                (Bytes.make 1 (Char.chr i)))
        done;
        Scheduler.run sched;
        Alcotest.(check (list int)) "all arrive in send order"
          (List.init 50 Fun.id) (List.rev !seen);
        Alcotest.(check int) "every message counted delayed" 50
          (Fabric.stats fabric).Fabric.delays_injected);
    Alcotest.test_case "delay validates mean and jitter" `Quick (fun () ->
        Alcotest.check_raises "negative mean"
          (Invalid_argument "Fault.delay: mean must be >= 0") (fun () ->
            ignore (Fault.delay ~mean:(-5) ()));
        Alcotest.check_raises "jitter exceeds mean"
          (Invalid_argument
             "Fault.delay: jitter must not exceed the mean") (fun () ->
            ignore
              (Fault.delay ~mean:(Time_ns.us 10.) ~jitter:(Time_ns.us 20.) ())));
    Alcotest.test_case "compose: corrupt wins over delay, drop over both"
      `Quick (fun () ->
        let corrupt_always =
          Fault.custom (fun ~now:_ ~src:_ ~dst:_ ~len:_ ->
              Fault.Corrupt (Fault.Flip { bit = 0 }))
        in
        let delay_always =
          Fault.custom (fun ~now:_ ~src:_ ~dst:_ ~len:_ ->
              Fault.Delay { by = Time_ns.us 10.; reorder = false })
        in
        let pick models =
          Fault.decide (Fault.compose models) ~now:0 ~src:(pid 0 0)
            ~dst:(pid 1 0) ~len:8
        in
        (match pick [ delay_always; corrupt_always ] with
        | Fault.Corrupt _ -> ()
        | _ -> Alcotest.fail "corrupt should win over delay");
        match pick [ corrupt_always; Fault.bernoulli ~p:1.0 () ] with
        | Fault.Drop -> ()
        | _ -> Alcotest.fail "drop should win over corrupt");
    Alcotest.test_case "corrupting compose reports can_corrupt" `Quick
      (fun () ->
        Alcotest.(check bool) "corrupt alone" true
          (Fault.can_corrupt (Fault.corrupt ~p:0.5 ()));
        Alcotest.(check bool) "buried in a compose" true
          (Fault.can_corrupt
             (Fault.compose
                [ Fault.bernoulli ~p:0.1 (); Fault.corrupt ~p:0.5 () ]));
        Alcotest.(check bool) "loss-only compose" false
          (Fault.can_corrupt
             (Fault.compose
                [ Fault.bernoulli ~p:0.1 (); Fault.duplicator ~p:0.1 () ])));
  ]

let partition_tests =
  let cut ?(one_way = false) ?(heal_at = Some (Time_ns.us 100.)) () =
    Fault.partition_schedule
      [
        {
          Fault.group_a = [ 0; 1 ];
          group_b = [ 2; 3 ];
          one_way;
          cut_at = Time_ns.us 10.;
          heal_at;
        };
      ]
  in
  [
    Alcotest.test_case "cut severs cross-group traffic until the heal"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ());
        let seen = ref [] in
        Fabric.register fabric (pid 2 0) (fun ~src:_ b ->
            seen := Bytes.get_uint8 b 0 :: !seen);
        List.iter
          (fun (t, tag) ->
            Scheduler.at sched (Time_ns.us t) (fun () ->
                Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0)
                  (Bytes.make 1 (Char.chr tag))))
          [ (0., 0); (50., 1); (120., 2) ];
        Scheduler.run sched;
        Alcotest.(check (list int)) "mid-cut send lost" [ 0; 2 ]
          (List.rev !seen);
        Alcotest.(check int) "counted partitioned" 1
          (Fabric.stats fabric).Fabric.drops_partitioned);
    Alcotest.test_case "intra-group traffic rides through the cut" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ());
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Scheduler.at sched (Time_ns.us 50.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 4));
        Scheduler.run sched;
        Alcotest.(check int) "delivered" 1 !seen);
    Alcotest.test_case "one-way cut severs only group_a -> group_b" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ~one_way:true ());
        let fwd = ref 0 and back = ref 0 in
        Fabric.register fabric (pid 2 0) (fun ~src:_ _ -> incr fwd);
        Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> incr back);
        Scheduler.at sched (Time_ns.us 50.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0) (Bytes.create 4);
            Fabric.send fabric ~src:(pid 2 0) ~dst:(pid 0 0) (Bytes.create 4));
        Scheduler.run sched;
        Alcotest.(check int) "a -> b severed" 0 !fwd;
        Alcotest.(check int) "b -> a delivered" 1 !back);
    Alcotest.test_case "partitioned_now tracks the window; has_partitions \
                        is static"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ());
        Alcotest.(check bool) "schedule visible" true
          (Fabric.has_partitions fabric);
        Alcotest.(check bool) "before the cut" false
          (Fabric.partitioned_now fabric ~src:0 ~dst:2);
        Scheduler.at sched (Time_ns.us 50.) (fun () ->
            Alcotest.(check bool) "mid-cut" true
              (Fabric.partitioned_now fabric ~src:0 ~dst:2);
            Alcotest.(check bool) "intra-group never" false
              (Fabric.partitioned_now fabric ~src:0 ~dst:1));
        Scheduler.at sched (Time_ns.us 150.) (fun () ->
            Alcotest.(check bool) "healed" false
              (Fabric.partitioned_now fabric ~src:0 ~dst:2));
        Scheduler.run sched);
    Alcotest.test_case "schedule validation" `Quick (fun () ->
        let event =
          {
            Fault.group_a = [ 0 ];
            group_b = [ 1 ];
            one_way = false;
            cut_at = Time_ns.us 10.;
            heal_at = None;
          }
        in
        Alcotest.check_raises "empty group"
          (Invalid_argument "Fault.partition_schedule: both groups must be non-empty")
          (fun () ->
            ignore (Fault.partition_schedule [ { event with Fault.group_a = [] } ]));
        Alcotest.check_raises "overlapping groups"
          (Invalid_argument
             "Fault.partition_schedule: node 1 appears on both sides of the cut")
          (fun () ->
            ignore
              (Fault.partition_schedule
                 [ { event with Fault.group_a = [ 1 ] } ]));
        Alcotest.check_raises "heal not after cut"
          (Invalid_argument
             "Fault.partition_schedule: heal_at must be after cut_at")
          (fun () ->
            ignore
              (Fault.partition_schedule
                 [ { event with Fault.heal_at = Some (Time_ns.us 10.) } ])));
    Alcotest.test_case "fabric rejects out-of-range nids" `Quick (fun () ->
        let _, fabric = mk_fabric ~nodes:2 () in
        Alcotest.check_raises "nid 3 on a 2-node fabric"
          (Invalid_argument
             "Fabric.apply_partition_schedule: unknown nid 3")
          (fun () ->
            Fabric.apply_partition_schedule fabric
              (Fault.partition_schedule
                 [
                   {
                     Fault.group_a = [ 0 ];
                     group_b = [ 3 ];
                     one_way = false;
                     cut_at = 0;
                     heal_at = None;
                   };
                 ])));
  ]

let crash_tests =
  [
    Alcotest.test_case "crash fences delivery and deregisters procs" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Scheduler.at sched (Time_ns.us 10.) (fun () -> Fabric.crash fabric 1);
        Scheduler.at sched (Time_ns.us 20.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8));
        Scheduler.run sched;
        Alcotest.(check int) "nothing delivered" 0 !seen;
        Alcotest.(check bool) "node down" false (Fabric.is_node_up fabric 1);
        Alcotest.(check bool) "proc deregistered" false
          (Fabric.is_registered fabric (pid 1 0));
        Alcotest.(check int) "counted as crash drop" 1
          (Fabric.stats fabric).Fabric.drops_crashed);
    Alcotest.test_case "in-flight traffic dies with the node" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        (* The message is on the wire when the victim dies: sent at t=0,
           crash well before any profile's wire latency has elapsed. *)
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 64);
        Scheduler.at sched (Time_ns.ns 1) (fun () -> Fabric.crash fabric 1);
        Scheduler.run sched;
        Alcotest.(check int) "in-flight message lost" 0 !seen;
        Alcotest.(check int) "counted as crash drop" 1
          (Fabric.stats fabric).Fabric.drops_crashed);
    Alcotest.test_case "restart bumps the incarnation and reopens the node"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Alcotest.(check int) "first incarnation" 0 (Fabric.incarnation fabric 1);
        Fabric.apply_crash_schedule fabric
          (Fault.crash_schedule [ (1, Time_ns.us 10., Some (Time_ns.us 20.)) ]);
        (* A rebooted node must re-register its endpoints by hand. *)
        Scheduler.at sched (Time_ns.us 30.) (fun () ->
            Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen));
        Scheduler.at sched (Time_ns.us 40.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8));
        Scheduler.run sched;
        Alcotest.(check bool) "node back up" true (Fabric.is_node_up fabric 1);
        Alcotest.(check int) "second incarnation" 1 (Fabric.incarnation fabric 1);
        Alcotest.(check int) "post-restart delivery works" 1 !seen);
    Alcotest.test_case "crash kills the node's resident fibers" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let victim_done = ref false in
        let survivor_done = ref false in
        Scheduler.spawn sched ~name:"victim" ~domain:1 (fun () ->
            Scheduler.delay sched (Time_ns.us 100.);
            victim_done := true);
        Scheduler.spawn sched ~name:"survivor" ~domain:0 (fun () ->
            Scheduler.delay sched (Time_ns.us 100.);
            survivor_done := true);
        Scheduler.at sched (Time_ns.us 10.) (fun () -> Fabric.crash fabric 1);
        Scheduler.run sched;
        Alcotest.(check bool) "victim fiber killed" false !victim_done;
        Alcotest.(check bool) "survivor fiber unaffected" true !survivor_done);
    Alcotest.test_case "crash/restart state machine rejects bad transitions"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Scheduler.at sched Time_ns.zero (fun () ->
            let raises f =
              try
                f ();
                false
              with Invalid_argument _ -> true
            in
            Alcotest.(check bool) "restart while up" true
              (raises (fun () -> Fabric.restart fabric 1));
            Fabric.crash fabric 1;
            Alcotest.(check bool) "double crash" true
              (raises (fun () -> Fabric.crash fabric 1));
            Fabric.restart fabric 1);
        Scheduler.run sched);
    Alcotest.test_case "crash_schedule validates the script" `Quick (fun () ->
        let rejects events =
          try
            ignore (Fault.crash_schedule events);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "restart not after its crash" true
          (rejects [ (1, Time_ns.us 10., Some (Time_ns.us 10.)) ]);
        Alcotest.(check bool) "re-crash while still down" true
          (rejects
             [ (1, Time_ns.us 10., None); (1, Time_ns.us 20., Some (Time_ns.us 30.)) ]);
        Alcotest.(check bool) "valid script accepted" false
          (rejects
             [
               (1, Time_ns.us 10., Some (Time_ns.us 20.));
               (1, Time_ns.us 30., None);
               (2, Time_ns.us 5., Some (Time_ns.us 50.));
             ]));
    Alcotest.test_case "random_crash_schedule is deterministic and valid"
      `Quick (fun () ->
        let mk seed =
          Fault.random_crash_schedule ~seed ~nids:[ 0; 1; 2; 3 ] ~crashes:5
            ~horizon:(Time_ns.ms 10.) ()
        in
        Alcotest.(check int) "five events" 5 (List.length (mk 7));
        Alcotest.(check bool) "same seed replays" true (mk 7 = mk 7);
        List.iter
          (fun (e : Fault.crash_event) ->
            Alcotest.(check bool) "victim in range" true
              (e.Fault.victim >= 0 && e.Fault.victim < 4);
            match e.Fault.up_at with
            | None -> ()
            | Some up ->
              Alcotest.(check bool) "restart after crash" true
                (Time_ns.compare up e.Fault.down_at > 0))
          (mk 7));
    Alcotest.test_case "apply_crash_schedule fires kills, revives and hooks"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let log = ref [] in
        Fabric.on_crash fabric (fun nid ->
            log := `Down (nid, Scheduler.now sched) :: !log);
        Fabric.on_restart fabric (fun nid ->
            log := `Up (nid, Scheduler.now sched) :: !log);
        Fabric.apply_crash_schedule fabric
          (Fault.crash_schedule [ (2, Time_ns.us 5., Some (Time_ns.us 9.)) ]);
        Scheduler.run sched;
        Alcotest.(check bool) "down then up, at schedule times" true
          (List.rev !log
          = [ `Down (2, Time_ns.us 5.); `Up (2, Time_ns.us 9.) ]);
        Alcotest.(check int) "incarnation bumped" 1 (Fabric.incarnation fabric 2));
  ]

(* --- shard map --------------------------------------------------------- *)

let shard_map_tests =
  let profile = Profile.myrinet_mcp in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"every node owned by exactly one shard, in contiguous blocks"
         ~count:200
         QCheck.(pair (int_range 1 64) (int_range 1 16))
         (fun (nodes, shards) ->
           let shards = min shards nodes in
           let owners =
             List.init nodes (Shard_map.node_owner ~nodes ~shards)
           in
           (* In range, uses every shard, non-decreasing (= contiguous
              blocks), and balanced to within one node. *)
           let counts = Array.make shards 0 in
           List.iter
             (fun o -> counts.(o) <- counts.(o) + 1)
             owners;
           List.for_all (fun o -> o >= 0 && o < shards) owners
           && Array.for_all (fun c -> c > 0) counts
           && List.sort compare owners = owners
           && Array.for_all
                (fun c -> abs (c - (nodes / shards)) <= 1)
                counts));
    Alcotest.test_case "torus stripes: cut links cross shards only" `Quick
      (fun () ->
        let topo = Topology.build (Topology.of_spec ~nodes:16 "torus2d") ~nodes:16 in
        let map = Shard_map.build topo ~profile ~shards:4 in
        Alcotest.(check int) "shards" 4 (Shard_map.shards map);
        (* Exactly one owner per node: shard node lists partition 0..15. *)
        let all =
          List.concat_map (Shard_map.nodes_of map) [ 0; 1; 2; 3 ]
        in
        Alcotest.(check (list int))
          "partition" (List.init 16 Fun.id) (List.sort compare all);
        let cuts = Shard_map.cut_links map topo in
        Alcotest.(check bool) "some cut links" true (cuts <> []);
        List.iter
          (fun id ->
            let l = Topology.link topo id in
            Alcotest.(check bool) "endpoints on different shards" true
              (Shard_map.owner map l.Topology.src_v
              <> Shard_map.owner map l.Topology.dst_v))
          cuts;
        (* Non-cut links stay inside one shard by definition; lookahead
           is the minimum cut-link latency — with uniform links, the
           profile wire latency. *)
        Alcotest.(check int)
          "lookahead = min cut-link latency" profile.Profile.wire_latency
          (Shard_map.lookahead map));
    Alcotest.test_case "full topology lookahead is the wire latency" `Quick
      (fun () ->
        let topo = Topology.build Topology.Full ~nodes:8 in
        let map = Shard_map.build topo ~profile ~shards:2 in
        Alcotest.(check int) "lookahead" profile.Profile.wire_latency
          (Shard_map.lookahead map);
        Alcotest.(check (list int)) "no shared links to cut" []
          (Shard_map.cut_links map topo));
    Alcotest.test_case "validation" `Quick (fun () ->
        let topo = Topology.build Topology.Full ~nodes:4 in
        Alcotest.(check bool) "more shards than nodes" true
          (match Shard_map.build topo ~profile ~shards:5 with
          | _ -> false
          | exception Invalid_argument _ -> true);
        Alcotest.(check bool) "zero shards" true
          (match Shard_map.build topo ~profile ~shards:0 with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "simnet"
    [
      ("proc_id", proc_id_tests);
      ("profile", profile_tests);
      ("link", link_tests);
      ("link_contention", link_contention_tests);
      ("topology", topology_tests);
      ("router", router_tests);
      ("fabric", fabric_tests);
      ("fabric_topology", fabric_topology_tests);
      ("fault_models", fault_model_tests);
      ("corruption_delay", corruption_delay_tests);
      ("partitions", partition_tests);
      ("crash", crash_tests);
      ("shard_map", shard_map_tests);
      ("transport", transport_tests);
    ]
