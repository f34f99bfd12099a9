(* Host-speed calibration for the timed metrics.

   On a shared host the same code runs up to ~40% slower for minutes at a
   time, and the slowdown follows the memory system more than the core:
   a compute-bound loop barely moves while the simulator does. This
   kernel is a fixed, benchmark-owned memory-bound loop (random
   read-modify-writes over 64 MiB outside the OCaml heap). Its fastest
   time in a run, against [reference_ns], scales the run's timed metrics
   to the reference host. It shares no code with the simulator, so a
   change to the simulator cannot move it. *)

let cells = 8 * 1024 * 1024
let touches = 300_000

(* The kernel's fastest time on the reference host: a 2-vCPU VM, OCaml
   5.1.1. *)
let reference_ns = 4_000_000.

let mem =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
     Bigarray.Array1.fill a 0;
     a)

let run () =
  let a = Lazy.force mem in
  let t0 = Span.now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to touches do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = (!x lsr 6) land (cells - 1) in
    Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a i + 1)
  done;
  Span.now_ns () - t0

(* Host seconds per reference second over the run so far: > 1 on a slower
   (or busier) host. *)
let best = ref max_int

let sample () = best := min !best (run ())
let slowdown () = float_of_int !best /. reference_ns
