(* The benchmark of record.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it repeats rounds of the workload (timed set-up, then
   timed injection-to-quiescence, then the correctness checks) for S
   seconds and reports the end-to-end metrics as medians over rounds.
   With --trace 1 it runs the separate traced passes and reports the
   per-layer metrics. Either way the line before the last is the record:
   the full scenario, the sim fingerprint and the failed checks; the last
   line is the result object. *)

open Common

let workloads : (string * (module WORKLOAD)) list =
  [
    (Halo.name, (module Halo));
    (Mpi_bypass.name, (module Mpi_bypass));
    (Rma_lossy.name, (module Rma_lossy));
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (halo-torus|mpi-bypass|rma-lossy) --seed N \
     --seconds S --trace 0|1";
  exit 2

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per n x = if n = 0 then 0. else x /. float_of_int n

(* --- JSON output --------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

(* --- one round ----------------------------------------------------------- *)

type round = {
  setup_ns : int;
  run_ns : int;
  words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  outcome : outcome;
}

let round (type a i) (module W : WORKLOAD with type t = a and type inputs = i)
    (inputs : i) ~lossless ?(before_run = ignore) () =
  Gc.full_major ();
  let t0 = Span.now_ns () in
  let w = W.setup inputs ~lossless in
  let setup_ns = Span.now_ns () - t0 in
  before_run w;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let a0 = Span.alloc_words () in
  let t1 = Span.now_ns () in
  W.run w;
  let run_ns = Span.now_ns () - t1 in
  let words = Span.alloc_words () -. a0 in
  let g1 = Gc.quick_stat () in
  let outcome = W.check w in
  ( {
      setup_ns;
      run_ns;
      words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      outcome;
    },
    w )

let msgs_per_s r = float_of_int r.outcome.msgs /. (float_of_int r.run_ns /. 1e9)
let ns_per_msg r = per r.outcome.msgs (float_of_int r.run_ns)

(* --- the record ---------------------------------------------------------- *)

let fingerprint o =
  json_obj
    [
      ("sim_events", string_of_int o.sim_events);
      ("sim_time_us", Printf.sprintf "%.3f" o.sim_time_us);
      ("digest", json_str (Printf.sprintf "%016x" o.digest));
    ]

let print_record ~name ~scenario ~seed ~trace ~rounds ~attempted ~failed ?(spans = [])
    ?(extra = []) first =
  let span (name, calls, ns, words) =
    ( name,
      json_obj
        [
          ("calls", string_of_int calls);
          ("mean_ns", json_num (per calls (float_of_int ns)));
          ("mean_words", json_num (per calls words));
        ] )
  in
  print_endline
    (json_obj
       [
         ( "record",
           json_obj
             ([
               ("workload", json_str name);
               ("seed", string_of_int seed);
               ("trace", string_of_int trace);
               ("domains", "1");
               ("ocaml", json_str Sys.ocaml_version);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("scenario", json_obj (List.map (fun (k, v) -> (k, json_str v)) scenario));
               ("rounds", string_of_int rounds);
               ("msgs_per_round", string_of_int first.msgs);
               ("fingerprint", fingerprint first);
               ("failed_ratio", json_num (per attempted (float_of_int failed)));
             ]
             @ extra
             @ if spans = [] then [] else [ ("spans", json_obj (List.map span spans)) ]) );
       ])

let print_result ~attempted ~failed metrics =
  print_endline
    (json_obj
       [
         ("correct", if failed = 0 then "true" else "false");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (name, unit_, v) ->
                  (name, json_obj [ ("value", json_num v); ("unit", json_str unit_) ]))
                metrics) );
       ])

(* Every round of one seed must reproduce the first round's fingerprint;
   a round that does not counts as a failed check. *)
let tally rounds =
  let first = (List.hd rounds).outcome in
  List.fold_left
    (fun (attempted, failed) r ->
      let o = r.outcome in
      let drift =
        if o.sim_events <> first.sim_events || o.sim_time_us <> first.sim_time_us
           || o.digest <> first.digest
        then 1
        else 0
      in
      (attempted + o.attempted + 1, failed + o.failed + drift))
    (0, 0) rounds

(* --- untraced: the end-to-end metrics ------------------------------------ *)

let min_rounds = 10

(* Set-up is timed once per round, and a single set-up is short enough
   for a burst of host interference to slow it by half. Such bursts last
   seconds, so the median of all set-ups moves with how many of them a
   run happened to meet. [setup_s] is the median of the fastest few, for
   the same reason [msgs_per_s] takes the fastest round; the median keeps
   one mistimed sample from setting it. *)
let setup_fastest = 5

let fastest_median k l = median (List.filteri (fun i _ -> i < k) (List.sort compare l))

let timed (module W : WORKLOAD) ~seed ~seconds =
  let inputs = W.inputs ~seed in
  (* A warm-up round: heap growth and first-touch costs are paid once per
     process, not per round, so they stay out of the medians. Its checks
     still count. *)
  let warm = fst (round (module W) inputs ~lossless:false ()) in
  let start = Span.now_ns () in
  let deadline = start + (seconds * 1_000_000_000) in
  (* Slow rounds (a stuck world runs to the sim-time cap) may cut the
     minimum round count short, never the exit. *)
  let hard_deadline = start + (3 * seconds * 1_000_000_000) in
  let rec loop acc =
    let now = Span.now_ns () in
    if acc <> [] && ((List.length acc >= min_rounds && now >= deadline) || now >= hard_deadline)
    then List.rev acc
    else begin
      Calib.sample ();
      loop (fst (round (module W) inputs ~lossless:false ()) :: acc)
    end
  in
  let rounds = loop [] in
  let attempted, failed = tally (warm :: rounds) in
  (* Interference from a shared host only ever slows a round down, so the
     fastest round is the run's steadiest estimate of the code's own
     speed, and set-up takes its fastest samples likewise. Both are then
     scaled to the reference host by the calibration kernel. *)
  let rate = List.fold_left (fun acc r -> Float.max acc (msgs_per_s r)) 0. rounds in
  let setup =
    fastest_median setup_fastest (List.map (fun r -> float_of_int r.setup_ns /. 1e9) rounds)
  in
  let slowdown = Calib.slowdown () in
  print_record ~name:W.name ~scenario:W.scenario ~seed ~trace:0 ~rounds:(List.length rounds)
    ~attempted ~failed
    ~extra:
      [
        ( "host",
          json_obj
            [
              ("msgs_per_s", json_num rate);
              ("setup_s", json_num setup);
              ("calibration_ns", string_of_int !Calib.best);
              ("reference_ns", json_num Calib.reference_ns);
            ] );
      ]
    warm.outcome;
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  print_result ~attempted ~failed
    [
      ("msgs_per_s", "1/s", rate *. slowdown);
      ("setup_s", "s", setup /. slowdown);
      ( "alloc_words_per_msg",
        "words",
        median (List.map (fun r -> per r.outcome.msgs r.words) rounds) );
      ( "peak_heap_mb",
        "MB",
        float_of_int (top_heap * (Sys.word_size / 8)) /. 1048576. );
    ]

(* --- traced: the per-layer metrics --------------------------------------- *)

let metric_names =
  [
    ("engine.events_per_msg", "count");
    ("engine.heap_peak", "count");
    ("engine.ns_per_event", "ns");
    ("engine.alloc_words_per_event", "words");
    ("fabric.ns_per_msg", "ns");
    ("fabric.alloc_words_per_msg", "words");
    ("fabric.hops_per_msg", "count");
    ("link.queue_depth_max", "count");
    ("fabric.setup_s", "s");
    ("fabric.setup_words", "words");
    ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns");
    ("wire.alloc_words_per_frame", "words");
    ("ni.ns_per_msg", "ns");
    ("ni.alloc_words_per_msg", "words");
    ("ni.entries_walked_per_msg", "count");
    ("ni.init_ns", "ns");
    ("rel.retransmits_per_msg", "count");
    ("rel.acks_per_msg", "count");
    ("rel.duplicate_drops", "count");
    ("rel.useful_ratio", "ratio");
    ("rel.ns_per_msg", "ns");
    ("mpi.ns_per_msg", "ns");
    ("mpi.isend_ns", "ns");
    ("mpi.wait_ns", "ns");
    ("mpi.eager_sends", "count");
    ("mpi.rdvz_sends", "count");
    ("mpi.unexpected_highwater", "bytes");
    ("rma.op_ns", "ns");
    ("rma.lock_retries", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_msg", "words");
    ("trace.msgs_per_s", "1/s");
    ("trace.overhead_ratio", "ratio");
  ]

(* Host-time samples inside a traced pass are single runs, so each is the
   fastest of [reps], for the same reason the timed run reports its
   fastest round. *)
let reps = 3

let fastest ns_of f =
  let rec go best k =
    if k = 0 then best
    else
      let r = f () in
      go (if ns_of r < ns_of best then r else best) (k - 1)
  in
  go (f ()) (reps - 1)

let round_ns (r, _) = r.run_ns

let mpi_counters endpoints =
  List.fold_left
    (fun (e, r, u) ep ->
      let c = Mpi.counters ep in
      let get k = Option.value (List.assoc_opt k c) ~default:0 in
      (e + get "eager_sends", r + get "rdvz_sends", max u (get "unexpected_highwater")))
    (0, 0, 0) endpoints

(* One pass of every traced measurement: (name, value) pairs, the span
   table of the traced round, the rounds whose checks count, and the
   replays' own checks as (attempted, failed). Layers a workload never
   reaches read 0. *)
let traced_pass (type a i) (module W : WORKLOAD with type t = a and type inputs = i)
    (inputs : i) ~seed =
  (* Untraced reference round: counts, GC and the top entry point. *)
  let base, bw = fastest round_ns (round (module W) inputs ~lossless:false) in
  let msgs = base.outcome.msgs in
  let snaps = List.map Sim_engine.Metrics.snapshot (W.registries bw) in
  let sum name = metric_sum snaps name in
  let link_depth =
    List.fold_left
      (fun acc (w, _) -> max acc (Simnet.Fabric.peak_link_queue_depth w.Runtime.fabric))
      0 (W.worlds bw)
  in
  let eager, rdvz, ux = mpi_counters (W.mpi_endpoints bw) in
  (* The same round with every call into a layer wrapped in a span. *)
  let traced, _ =
    Span.with_tracing (fun () -> fastest round_ns (round (module W) inputs ~lossless:false))
  in
  let isend_ns = Span.mean_ns "mpi.isend" and wait_ns = Span.mean_ns "mpi.waitall" in
  let rma_ns = Span.mean_ns "win." in
  let spans = Span.summary () in
  Span.reset ();
  (* The shim's reference: the same traffic at loss 0 (no shim, no CRC). *)
  let lossless =
    if W.crc then Some (fst (fastest round_ns (round (module W) inputs ~lossless:true)))
    else None
  in
  (* Capture each world's fabric traffic on a lossless run. *)
  let captures = ref [] in
  let _ =
    round (module W) inputs ~lossless:true
      ~before_run:(fun w ->
        captures :=
          List.map (fun (world, shape) -> (shape, Layers.capture world.Runtime.fabric)) (W.worlds w))
      ()
  in
  let captures = List.map (fun (shape, get) -> (shape, get ())) !captures in
  let fab =
    List.map
      (fun (shape, frames) ->
        fastest (fun (c, _) -> c.Layers.ns) (fun () -> Layers.fabric_replay ~seed shape frames))
      captures
  in
  let fab_ns = List.fold_left (fun acc (c, _) -> acc + c.Layers.ns) 0 fab in
  let fab_words = List.fold_left (fun acc (c, _) -> acc +. c.Layers.words) 0. fab in
  let fab_events = List.fold_left (fun acc (c, _) -> acc + c.Layers.events) 0 fab in
  let fab_depth = List.fold_left (fun acc (c, _) -> max acc c.Layers.heap_peak) 0 fab in
  let hops = List.fold_left (fun acc (_, h) -> acc + h) 0 fab in
  let eng =
    fastest
      (fun c -> c.Layers.ns)
      (fun () -> Layers.engine_replay ~seed ~events:fab_events ~depth:fab_depth)
  in
  let ns_per_event = per eng.Layers.events (float_of_int eng.Layers.ns) in
  let words_per_event = per eng.Layers.events eng.Layers.words in
  let fab_self_ns = per msgs (float_of_int fab_ns -. (ns_per_event *. float_of_int fab_events)) in
  let fab_self_words = per msgs (fab_words -. (words_per_event *. float_of_int fab_events)) in
  let setups = List.map (fun (_, shape) -> Layers.fabric_setup ~seed shape) (W.worlds bw) in
  let ni =
    if not W.uses_ni then None
    else
      Some
        (List.map
           (fun (shape, frames) ->
             fastest
               (fun (c, _) -> c.Layers.ns)
               (fun () -> Layers.ni_replay ~seed ~crc:W.crc shape frames))
           captures)
  in
  let ni_ns, ni_words, ni_init =
    match ni with
    | None -> (0., 0., 0.)
    | Some l ->
      let ns = List.fold_left (fun acc (c, _) -> acc + c.Layers.ns) 0 l in
      let words = List.fold_left (fun acc (c, _) -> acc +. c.Layers.words) 0. l in
      ( per msgs (float_of_int ns) -. per msgs (float_of_int fab_ns),
        per msgs words -. per msgs fab_words,
        median (List.map snd l) )
  in
  let all_frames = Array.concat (List.map snd captures) in
  (* A replay that lost traffic would not measure what it claims to. *)
  let frames = Array.length all_frames in
  let delivered l = List.fold_left (fun acc (c, _) -> acc + c.Layers.delivered) 0 l in
  let replays =
    [ eng.Layers.delivered = fab_events; delivered fab = frames ]
    @ match ni with None -> [] | Some l -> [ delivered l = frames ]
  in
  let checks = (List.length replays, List.length (List.filter not replays)) in
  let enc, dec, wire_words =
    if W.uses_ni then Layers.wire_bench ~crc:W.crc ~min_ns:200_000_000 all_frames
    else (0., 0., 0.)
  in
  let top_ns = ns_per_msg base in
  let ni_incl = per msgs (float_of_int fab_ns) +. ni_ns in
  let rel_sent = sum "rel.data_sent" in
  let values =
    [
      ("engine.events_per_msg", per msgs (float_of_int base.outcome.sim_events));
      ("engine.heap_peak", metric_max snaps "sched.heap_peak");
      ("engine.ns_per_event", ns_per_event);
      ("engine.alloc_words_per_event", words_per_event);
      ("fabric.ns_per_msg", fab_self_ns);
      ("fabric.alloc_words_per_msg", fab_self_words);
      ("fabric.hops_per_msg", per msgs (float_of_int hops));
      ("link.queue_depth_max", float_of_int link_depth);
      ("fabric.setup_s", float_of_int (List.fold_left (fun a (ns, _) -> a + ns) 0 setups) /. 1e9);
      ("fabric.setup_words", List.fold_left (fun a (_, w) -> a +. w) 0. setups);
      ("wire.encode_ns", enc);
      ("wire.decode_ns", dec);
      ("wire.alloc_words_per_frame", wire_words);
      ("ni.ns_per_msg", ni_ns);
      ("ni.alloc_words_per_msg", ni_words);
      ("ni.entries_walked_per_msg", per msgs (sum "ni.entries_walked"));
      ("ni.init_ns", ni_init);
      ("rel.retransmits_per_msg", per msgs (sum "rel.retransmits"));
      ("rel.acks_per_msg", per msgs (sum "rel.acks_sent"));
      ("rel.duplicate_drops", sum "rel.duplicate_drops");
      ("rel.useful_ratio", if rel_sent = 0. then 0. else sum "rel.delivered" /. rel_sent);
      ( "rel.ns_per_msg",
        match lossless with None -> 0. | Some l -> top_ns -. ns_per_msg l );
      ("mpi.ns_per_msg", if eager + rdvz = 0 then 0. else top_ns -. ni_incl);
      ("mpi.isend_ns", isend_ns);
      ("mpi.wait_ns", wait_ns);
      ("mpi.eager_sends", float_of_int eager);
      ("mpi.rdvz_sends", float_of_int rdvz);
      ("mpi.unexpected_highwater", float_of_int ux);
      ("rma.op_ns", rma_ns);
      ("rma.lock_retries", sum "rma.lock_retries");
      ("gc.minor_collections", float_of_int base.minor_gcs);
      ("gc.major_collections", float_of_int base.major_gcs);
      ("gc.promoted_words_per_msg", per msgs base.promoted);
      ("trace.msgs_per_s", msgs_per_s traced);
      ("trace.overhead_ratio", ns_per_msg traced /. top_ns);
    ]
  in
  (values, spans, [ base; traced ], checks)

let traced (module W : WORKLOAD) ~seed ~seconds =
  let inputs = W.inputs ~seed in
  let warm = fst (round (module W) inputs ~lossless:false ()) in
  let deadline = Span.now_ns () + (seconds * 1_000_000_000) in
  let rec loop acc =
    if acc <> [] && Span.now_ns () >= deadline then List.rev acc
    else loop (traced_pass (module W) inputs ~seed :: acc)
  in
  let passes = loop [] in
  let rounds = warm :: List.concat_map (fun (_, _, r, _) -> r) passes in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (_, _, _, (a', f')) -> (a + a', f + f'))
      (tally rounds) passes
  in
  let _, spans, _, _ = List.hd passes in
  print_record ~name:W.name ~scenario:W.scenario ~seed ~trace:1 ~rounds:(List.length rounds)
    ~attempted ~failed ~spans warm.outcome;
  print_result ~attempted ~failed
    (List.map
       (fun (name, unit_) ->
         (name, unit_, median (List.map (fun (values, _, _, _) -> List.assoc name values) passes)))
       metric_names)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value (int_of_string_opt v) ~default:0;
      parse rest
    | "--trace" :: v :: rest ->
      trace := Option.value (int_of_string_opt v) ~default:(-1);
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed) with
  | None, _ | _, None -> usage ()
  | Some _, _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) -> usage ()
  | Some w, Some seed ->
    if !trace = 0 then timed w ~seed ~seconds:!seconds else traced w ~seed ~seconds:!seconds
