(* Host clock, allocation counter and the in-memory span table of the
   traced run.

   A span brackets one call the benchmark makes into a layer's public
   function:

     let m = Span.start () in
     let r = Layer.call ... in
     Span.stop "layer.call" m;

   It records the call's host-clock duration and the words the call
   allocated. With tracing off, [start] returns a shared constant and
   [stop] returns at once, so the timed rounds pay no allocation for the
   spans they pass through. A call that suspends its fiber (an MPI wait, a
   blocking window operation) is timed inclusively: its span also covers
   the simulation events the scheduler ran while the fiber was parked.
   Spans are aggregated per name as they close; nothing is written out. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far by this domain, minor and major heaps together
   (large blocks bypass the minor heap, so [minor_words] alone would miss
   every payload-sized buffer). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type acc = { mutable calls : int; mutable ns : int; mutable words : float }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32
let on = ref false

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { calls = 0; ns = 0; words = 0. } in
    Hashtbl.replace table name a;
    a

(* Where a span started. It lives in the caller's frame, so a call that
   parks its fiber keeps its own start however other fibers interleave. *)
type mark = { t0 : int; w0 : int }

let off = { t0 = 0; w0 = 0 }

let mark () =
  let w0 = int_of_float (alloc_words ()) in
  { t0 = now_ns (); w0 }

(* What one empty span costs in words: [alloc_words] allocates a tuple of
   boxed floats, and the mark is a block of its own. Subtracted from every
   span. *)
let self_words =
  let m = mark () in
  alloc_words () -. float_of_int m.w0

let start () = if !on then mark () else off

let stop name m =
  if !on then begin
    let w1 = alloc_words () in
    let t1 = now_ns () in
    let a = acc name in
    a.ns <- a.ns + (t1 - m.t0);
    a.words <- a.words +. (w1 -. float_of_int m.w0 -. self_words);
    a.calls <- a.calls + 1
  end

let reset () = Hashtbl.reset table

let with_tracing f =
  reset ();
  on := true;
  Fun.protect ~finally:(fun () -> on := false) f

(* Aggregates over every span whose name starts with [prefix]. *)
let totals prefix =
  Hashtbl.fold
    (fun name a (calls, ns, words) ->
      if String.starts_with ~prefix name then
        (calls + a.calls, ns + a.ns, words +. a.words)
      else (calls, ns, words))
    table (0, 0, 0.)

(* (name, calls, ns, words) of every span, by name. *)
let summary () =
  Hashtbl.fold (fun name a acc -> (name, a.calls, a.ns, a.words) :: acc) table []
  |> List.sort compare

let mean_ns prefix =
  let calls, ns, _ = totals prefix in
  if calls = 0 then 0. else float_of_int ns /. float_of_int calls
