(* Central observability registry. Every subsystem (NI, CPU, links, event
   queues, protocol layers) registers named instruments here; experiments
   and the CLI read a uniform snapshot back out instead of stitching
   together per-module records.

   Instruments are keyed by (name, sorted labels); registering the same key
   twice returns the same instrument. Probes are polled only at snapshot
   time, so hot paths pay nothing for them. Components that come in
   thousands (links, CPUs, NIs) register no instruments at all: a group
   registers one source closure that emits its entries at snapshot time,
   so set-up costs one table insertion per group, not one per value. *)

type labels = (string * string) list

let normalize_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let pp_labels ppf labels =
  match labels with
  | [] -> ()
  | _ ->
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type summary = {
  mutable m_count : int;
  mutable m_total : float;
  mutable m_sum_sq : float;
  mutable m_min : float;
  mutable m_max : float;
}

type series = {
  r_detail : bool ref;
  mutable r_rev_points : (float * float) list;
  mutable r_len : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Probe of (unit -> float)
  | Summary of summary
  | Series of series

type entry = { name : string; labels : labels; mutable instrument : instrument }

type emit = string -> labels -> float -> unit

(* [stamp] orders sources by their latest (re)registration: on a key
   emitted by two sources, the later one wins. *)
type source = { mutable poll : emit -> unit; mutable stamp : int }

type t = {
  (* Time-series sampling is a separate, default-off level: every sample
     allocates a point, and some series sample per message (EQ depth,
     protocol windows) — too hot to pay in scaling sweeps that never read
     the curves. Deep-dive experiments (Fig. 5/6 worlds) switch it on. *)
  detail : bool ref;
  mutable rev_entries : entry list;
  tbl : (string * labels, entry) Hashtbl.t;
  sources : (string, source) Hashtbl.t;
  mutable next_stamp : int;
}

let create ?(detail = false) () =
  {
    detail = ref detail;
    rev_entries = [];
    tbl = Hashtbl.create 64;
    sources = Hashtbl.create 8;
    next_stamp = 0;
  }

let detail t = !(t.detail)
let set_detail t on = t.detail := on

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Probe _ -> "probe"
  | Summary _ -> "summary"
  | Series _ -> "series"

let register t name labels make =
  let labels = normalize_labels labels in
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some entry -> entry
  | None ->
    let entry = { name; labels; instrument = make () } in
    Hashtbl.add t.tbl key entry;
    t.rev_entries <- entry :: t.rev_entries;
    entry

let mismatch name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, wanted a %s" name
       got want)

let counter t ?(labels = []) name =
  match
    (register t name labels (fun () -> Counter { c_value = 0 })).instrument
  with
  | Counter c -> c
  | other -> mismatch name "counter" (kind_name other)

let gauge t ?(labels = []) name =
  match
    (register t name labels (fun () -> Gauge { g_value = 0. })).instrument
  with
  | Gauge g -> g
  | other -> mismatch name "gauge" (kind_name other)

let probe t ?(labels = []) name f =
  (* Re-registering a probe rebinds it: a component recreated under the
     same identity (e.g. a fresh NI for the same rank) must not leave a
     stale closure polling dead state. *)
  let entry = register t name labels (fun () -> Probe f) in
  match entry.instrument with
  | Probe _ -> entry.instrument <- Probe f
  | other -> mismatch name "probe" (kind_name other)

let source t id poll =
  let stamp = t.next_stamp in
  t.next_stamp <- stamp + 1;
  match Hashtbl.find_opt t.sources id with
  | Some src ->
    src.poll <- poll;
    src.stamp <- stamp
  | None -> Hashtbl.add t.sources id { poll; stamp }

let new_summary () =
  Summary
    {
      m_count = 0;
      m_total = 0.;
      m_sum_sq = 0.;
      m_min = infinity;
      m_max = neg_infinity;
    }

let summary t ?(labels = []) name =
  match (register t name labels new_summary).instrument with
  | Summary s -> s
  | other -> mismatch name "summary" (kind_name other)

let series t ?(labels = []) name =
  match
    (register t name labels (fun () ->
         Series { r_detail = t.detail; r_rev_points = []; r_len = 0 }))
      .instrument
  with
  | Series s -> s
  | other -> mismatch name "series" (kind_name other)

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value
let set g v = g.g_value <- v
let gauge_value g = g.g_value

let observe m x =
  m.m_count <- m.m_count + 1;
  m.m_total <- m.m_total +. x;
  m.m_sum_sq <- m.m_sum_sq +. (x *. x);
  if x < m.m_min then m.m_min <- x;
  if x > m.m_max then m.m_max <- x

let push r ~x ~y =
  if !(r.r_detail) then begin
    r.r_rev_points <- (x, y) :: r.r_rev_points;
    r.r_len <- r.r_len + 1
  end

let series_points r = List.rev r.r_rev_points
let series_length r = r.r_len

let reset t =
  List.iter
    (fun e ->
      match e.instrument with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.
      | Probe _ -> ()
      | Summary m ->
        m.m_count <- 0;
        m.m_total <- 0.;
        m.m_sum_sq <- 0.;
        m.m_min <- infinity;
        m.m_max <- neg_infinity
      | Series r ->
        r.r_rev_points <- [];
        r.r_len <- 0)
    t.rev_entries

module Snapshot = struct
  type value =
    | Counter of int
    | Gauge of float
    | Summary of {
        count : int;
        mean : float;
        min : float;
        max : float;
        stddev : float;
        total : float;
      }
    | Series of (float * float) list

  type entry = { name : string; labels : labels; value : value }
  type nonrec t = entry list

  let find ?(labels = []) t name =
    let labels = normalize_labels labels in
    Option.map
      (fun e -> e.value)
      (List.find_opt (fun e -> String.equal e.name name && e.labels = labels) t)

  let find_exn ?(labels = []) t name =
    match find ~labels t name with
    | Some v -> v
    | None ->
      invalid_arg
        (Format.asprintf "Metrics.Snapshot: no entry %S %a" name pp_labels
           (normalize_labels labels))

  let filter t name = List.filter (fun e -> String.equal e.name name) t
end

let summary_stats m =
  let mean = if m.m_count = 0 then 0. else m.m_total /. float_of_int m.m_count in
  let stddev =
    if m.m_count < 2 then 0.
    else begin
      let n = float_of_int m.m_count in
      let var = (m.m_sum_sq /. n) -. (mean *. mean) in
      if var < 0. then 0. else sqrt var
    end
  in
  Snapshot.Summary
    {
      count = m.m_count;
      mean;
      min = (if m.m_count = 0 then 0. else m.m_min);
      max = (if m.m_count = 0 then 0. else m.m_max);
      stddev;
      total = m.m_total;
    }

let compare_entries (a : Snapshot.entry) (b : Snapshot.entry) =
  match String.compare a.Snapshot.name b.Snapshot.name with
  | 0 -> compare a.Snapshot.labels b.Snapshot.labels
  | c -> c

(* Sorted entries with one per key: the stable sort keeps the input order
   among equal keys, and the first of each run is kept. *)
let dedup sorted =
  let rec go acc = function
    | [] -> List.rev acc
    | (e : Snapshot.entry) :: rest -> (
      match acc with
      | prev :: _ when compare_entries prev e = 0 -> go acc rest
      | _ -> go (e :: acc) rest)
  in
  go [] sorted

let snapshot t : Snapshot.t =
  let capture e : Snapshot.entry =
    let value =
      match e.instrument with
      | Counter c -> Snapshot.Counter c.c_value
      | Gauge g -> Snapshot.Gauge g.g_value
      | Probe f -> Snapshot.Gauge (f ())
      | Summary m -> summary_stats m
      | Series r -> Snapshot.Series (series_points r)
    in
    { Snapshot.name = e.name; labels = e.labels; value }
  in
  (* Instruments first, then sources latest first: on a clash the
     registered instrument wins, then the most recently registered
     source. *)
  let sources =
    Hashtbl.fold (fun _ src acc -> src :: acc) t.sources []
    |> List.sort (fun a b -> Int.compare b.stamp a.stamp)
  in
  let polled = ref [] in
  let emit name labels v =
    polled :=
      { Snapshot.name; labels = normalize_labels labels; value = Gauge v }
      :: !polled
  in
  List.iter (fun src -> src.poll emit) sources;
  List.rev_map capture t.rev_entries @ List.rev !polled
  |> List.stable_sort compare_entries
  |> dedup

let absorb t ?(labels = []) (snap : Snapshot.t) =
  List.iter
    (fun (e : Snapshot.entry) ->
      let combined = labels @ e.Snapshot.labels in
      match e.Snapshot.value with
      | Snapshot.Counter v ->
        let c = counter t ~labels:combined e.Snapshot.name in
        c.c_value <- c.c_value + v
      | Snapshot.Gauge v ->
        let g = gauge t ~labels:combined e.Snapshot.name in
        g.g_value <- v
      | Snapshot.Summary { count; mean; stddev; min; max; total } ->
        let m = summary t ~labels:combined e.Snapshot.name in
        if count > 0 then begin
          let n = float_of_int count in
          (* Recover the moment sums so absorbed summaries keep merging:
             sum_sq = n * (stddev^2 + mean^2). *)
          m.m_count <- m.m_count + count;
          m.m_total <- m.m_total +. total;
          m.m_sum_sq <- m.m_sum_sq +. (n *. ((stddev *. stddev) +. (mean *. mean)));
          if min < m.m_min then m.m_min <- min;
          if max > m.m_max then m.m_max <- max
        end
      | Snapshot.Series pts ->
        let r = series t ~labels:combined e.Snapshot.name in
        List.iter
          (fun (x, y) ->
            r.r_rev_points <- (x, y) :: r.r_rev_points;
            r.r_len <- r.r_len + 1)
          pts)
    snap
