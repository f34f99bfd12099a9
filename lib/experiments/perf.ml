open Sim_engine

type record = {
  id : string;
  wall_s : float;
  sim_events : int;
  fibers : int;
  sim_time_us : float;
  events_per_sec : float;
  peak_heap_words : int;
}

(* Each runner is metered as a delta of the process-wide scheduler totals
   around its run, so a record reflects exactly the simulation work the
   experiment caused (every world it built included). [peak_heap_words]
   is the GC's top_heap_words after the run — monotone across the
   process, so it reads as "peak heap so far", not a per-experiment
   figure. Wall time and heap words vary run to run; the sim-side fields
   (sim_events, fibers, sim_time_us) are deterministic for a fixed seed. *)
let meter_once ~id f =
  (* Compact first so one experiment's garbage cannot charge the next
     one's wall clock with a major collection. *)
  Gc.compact ();
  let e0 = Scheduler.global_totals () in
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let t1 = Unix.gettimeofday () in
  let e1 = Scheduler.global_totals () in
  let wall = t1 -. t0 in
  let events = e1.Scheduler.t_events - e0.Scheduler.t_events in
  {
    id;
    wall_s = wall;
    sim_events = events;
    fibers = e1.Scheduler.t_fibers - e0.Scheduler.t_fibers;
    sim_time_us =
      Time_ns.to_us (Time_ns.sub e1.Scheduler.t_sim_time e0.Scheduler.t_sim_time);
    events_per_sec = (if wall > 0. then float_of_int events /. wall else 0.);
    peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(* Best of three: the sim-side fields are deterministic, so repeats agree
   on them exactly and only the host-side fields differ; keeping the
   fastest repeat filters out wall-clock interference (GC pauses, a busy
   host), which a regression gate would otherwise misread. *)
let meter ~id f =
  let rec best n acc =
    if n = 0 then acc
    else begin
      let r = meter_once ~id f in
      best (n - 1) (if r.events_per_sec > acc.events_per_sec then r else acc)
    end
  in
  best 2 (meter_once ~id f)

let runners ~quick =
  let nth_table n () = List.nth (Tables.run ()) n in
  [
    ("T1", fun () -> meter ~id:"T1" (nth_table 0));
    ("T2", fun () -> meter ~id:"T2" (nth_table 1));
    ("T3", fun () -> meter ~id:"T3" (nth_table 2));
    ("T4", fun () -> meter ~id:"T4" (nth_table 3));
    ("F1", fun () -> meter ~id:"F1" (fun () -> Protocols.run_put ()));
    ("F2", fun () -> meter ~id:"F2" (fun () -> Protocols.run_get ()));
    ( "F3",
      fun () ->
        meter ~id:"F3" (fun () -> Translation.run ~depths:[ 0; 16; 64 ] ()) );
    ( "F4",
      fun () ->
        meter ~id:"F4" (fun () ->
            Translation.run ~depths:(if quick then [ 128 ] else [ 128; 256 ]) ())
    );
    ("F5", fun () -> meter ~id:"F5" (fun () -> Fig5.run Fig5.default_params));
    ( "F6",
      fun () ->
        meter ~id:"F6" (fun () ->
            if quick then Fig6.run ~iterations:1 ~work_ms:[ 0.; 20. ] ()
            else Fig6.run ()) );
    ( "L1",
      fun () ->
        meter ~id:"L1" (fun () ->
            if quick then Latency.run_one ~iterations:10 Runtime.Offload
            else List.hd (Latency.run ())) );
    ( "B1",
      fun () ->
        meter ~id:"B1" (fun () ->
            if quick then
              Bandwidth.run_one ~sizes:[ 65_536 ] ~count:8 Runtime.Offload
            else List.hd (Bandwidth.run ())) );
    ( "S1",
      fun () ->
        meter ~id:"S1" (fun () ->
            if quick then Scaling.run_memory ~job_sizes:[ 8 ] ()
            else Scaling.run_memory ()) );
    ( "S2",
      fun () ->
        meter ~id:"S2" (fun () ->
            if quick then Scaling.run_collectives ~node_counts:[ 16; 64 ] ()
            else Scaling.run_collectives ()) );
    ( "S3",
      fun () ->
        meter ~id:"S3" (fun () ->
            if quick then Scaling.run_perf ~node_counts:[ 64; 256 ] ()
            else Scaling.run_perf ()) );
    ("A1", fun () -> meter ~id:"A1" (fun () -> Drops.run ()));
    ( "A2",
      fun () ->
        meter ~id:"A2" (fun () ->
            if quick then Ablation.run_threshold ~sizes:[ 32_768; 131_072 ] ()
            else Ablation.run_threshold ()) );
    ( "R1",
      fun () ->
        meter ~id:"R1" (fun () ->
            if quick then
              Rel_loss_sweep.run ~losses:[ 0.; 0.05 ] ~seeds:[ 1 ] ~msgs:50 ()
            else Rel_loss_sweep.run ()) );
    ("C1", fun () -> meter ~id:"C1" (fun () -> Crash_restart.run ()));
  ]

let all ?(quick = false) () = List.map (fun (_, f) -> f ()) (runners ~quick)
let ids = List.map fst (runners ~quick:true)

let pp ppf records =
  Format.fprintf ppf "%-6s %-10s %-12s %-8s %-14s %-14s %-14s@." "id"
    "wall(s)" "sim-events" "fibers" "sim-time(us)" "events/sec" "peak-heap(w)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-6s %-10.4f %-12d %-8d %-14.1f %-14.0f %-14d@."
        r.id r.wall_s r.sim_events r.fibers r.sim_time_us r.events_per_sec
        r.peak_heap_words)
    records

(* {2 JSON} — hand-rolled both ways; the format is the fixed shape below,
   and the reader is a small recursive-descent parser that accepts any
   JSON but only extracts that shape. No dependency needed. *)

let to_json records =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"portals-bench/1\",\n  \"records\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"id\": %S, \"wall_s\": %.6f, \"sim_events\": %d, \"fibers\": \
            %d, \"sim_time_us\": %.3f, \"events_per_sec\": %.1f, \
            \"peak_heap_words\": %d}%s\n"
           r.id r.wall_s r.sim_events r.fibers r.sim_time_us r.events_per_sec
           r.peak_heap_words
           (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | c -> fail (Printf.sprintf "unsupported escape \\%C" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J_obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or }"
        in
        J_obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J_list []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        J_list (elements [])
      end
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_json_string text =
  match parse_json text with
  | exception Parse_error msg -> Error msg
  | json -> (
    let field name = function
      | J_obj kvs -> List.assoc_opt name kvs
      | _ -> None
    in
    let num name obj =
      match field name obj with Some (J_num f) -> Some f | _ -> None
    in
    let record_of = function
      | J_obj _ as obj -> (
        match (field "id" obj, num "wall_s" obj, num "sim_events" obj) with
        | Some (J_str id), Some wall_s, Some ev ->
          Some
            {
              id;
              wall_s;
              sim_events = int_of_float ev;
              fibers =
                int_of_float (Option.value ~default:0. (num "fibers" obj));
              sim_time_us = Option.value ~default:0. (num "sim_time_us" obj);
              events_per_sec =
                Option.value ~default:0. (num "events_per_sec" obj);
              peak_heap_words =
                int_of_float
                  (Option.value ~default:0. (num "peak_heap_words" obj));
            }
        | _ -> None)
      | _ -> None
    in
    match field "records" json with
    | Some (J_list items) -> (
      let records = List.filter_map record_of items in
      match records with
      | [] -> Error "no valid records"
      | records -> Ok records)
    | _ -> Error "missing \"records\" array")

let write_json ~path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json records))

let read_json ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_json_string text

type regression = {
  r_id : string;
  r_baseline : float;
  r_current : float;
  r_ratio : float;
}

(* The gate compares each record's wall time: [base.wall_s /. cur.wall_s]
   is the current run's speed relative to the baseline's on the same
   work. Events/sec would read a change that cuts the event count for
   the same result as a slowdown; for a record whose [sim_events] did
   not move the two ratios are equal, so the verdict is the same. Runs
   under [min_gated_events] finish in microseconds and their wall time is
   timer noise; they are skipped, as are records with no measured wall
   time and ids missing from either side. *)
let min_gated_events = 1000

let compare_baseline ~baseline ~current ~tolerance_pct =
  let floor_frac = 1. -. (tolerance_pct /. 100.) in
  List.filter_map
    (fun cur ->
      match List.find_opt (fun b -> b.id = cur.id) baseline with
      | None -> None
      | Some base ->
        if
          base.wall_s <= 0.
          || cur.wall_s <= 0.
          || base.sim_events < min_gated_events
          || cur.sim_events < min_gated_events
        then None
        else begin
          let ratio = base.wall_s /. cur.wall_s in
          if ratio < floor_frac then
            Some
              {
                r_id = cur.id;
                r_baseline = base.wall_s;
                r_current = cur.wall_s;
                r_ratio = ratio;
              }
          else None
        end)
    current

let pp_regressions ppf regs =
  List.iter
    (fun r ->
      Format.fprintf ppf
        "PERF REGRESSION %s: %.6f s vs baseline %.6f s (%.0f%% of baseline \
         speed)@."
        r.r_id r.r_current r.r_baseline (100. *. r.r_ratio))
    regs
