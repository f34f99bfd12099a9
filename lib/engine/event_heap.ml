(* The heap is stored as three parallel arrays rather than an array of
   {time; seq; value} records: [add]/[pop_min] then allocate nothing
   (amortised), where the record layout cost one 4-word allocation per
   scheduled event — the dominant allocation of a discrete-event run.
   Times are Time_ns.t = int, so comparisons are immediate.

   The tree is 4-ary: children of [i] sit at [4i+1 .. 4i+4]. Halving the
   depth matters because every processed event pays one sift-down from
   the root, and during an all-to-all phase the pending set is hundreds
   of events deep; the four children also share cache lines. Sifts move
   a hole instead of swapping — three array writes per level rather than
   six — and the (time, seq) order is exactly the binary heap's, so
   event ordering (and with it every seeded run) is unchanged. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

exception Empty

let create () =
  {
    times = [||];
    seqs = [||];
    values = [||];
    size = 0;
    next_seq = 0;
    peak = 0;
  }

let is_empty t = t.size = 0
let length t = t.size
let peak_size t = t.peak

let grow t value =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nt = Array.make ncap 0 and ns = Array.make ncap 0 in
    let nv = Array.make ncap value in
    Array.blit t.times 0 nt 0 t.size;
    Array.blit t.seqs 0 ns 0 t.size;
    Array.blit t.values 0 nv 0 t.size;
    t.times <- nt;
    t.seqs <- ns;
    t.values <- nv
  end

(* Both sifts lift slot [i] out as a hole, move displaced entries into
   it one write per field, and drop the lifted entry at the hole's final
   position. *)
let sift_up t i =
  let ht = t.times.(i) and hs = t.seqs.(i) and hv = t.values.(i) in
  let j = ref i in
  let moving = ref true in
  while !moving && !j > 0 do
    let parent = (!j - 1) / 4 in
    let pt = t.times.(parent) in
    if ht < pt || (ht = pt && hs < t.seqs.(parent)) then begin
      t.times.(!j) <- pt;
      t.seqs.(!j) <- t.seqs.(parent);
      t.values.(!j) <- t.values.(parent);
      j := parent
    end
    else moving := false
  done;
  t.times.(!j) <- ht;
  t.seqs.(!j) <- hs;
  t.values.(!j) <- hv

let sift_down t i =
  let ht = t.times.(i) and hs = t.seqs.(i) and hv = t.values.(i) in
  let n = t.size in
  let j = ref i in
  let moving = ref true in
  while !moving do
    let first = (4 * !j) + 1 in
    if first >= n then moving := false
    else begin
      let last_child = if first + 3 < n - 1 then first + 3 else n - 1 in
      let m = ref first in
      for c = first + 1 to last_child do
        let ct = t.times.(c) and mt = t.times.(!m) in
        if ct < mt || (ct = mt && t.seqs.(c) < t.seqs.(!m)) then m := c
      done;
      let mt = t.times.(!m) in
      if mt < ht || (mt = ht && t.seqs.(!m) < hs) then begin
        t.times.(!j) <- mt;
        t.seqs.(!j) <- t.seqs.(!m);
        t.values.(!j) <- t.values.(!m);
        j := !m
      end
      else moving := false
    end
  done;
  t.times.(!j) <- ht;
  t.seqs.(!j) <- hs;
  t.values.(!j) <- hv

let add t ~time value =
  grow t value;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.values.(i) <- value;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  if t.size > t.peak then t.peak <- t.size;
  sift_up t i

let min_time t = if t.size = 0 then raise Empty else t.times.(0)
let min_seq t = if t.size = 0 then raise Empty else t.seqs.(0)
let next_seq t = t.next_seq

let take_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let pop_min t =
  if t.size = 0 then raise Empty
  else begin
    let top = t.values.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      t.times.(0) <- t.times.(last);
      t.seqs.(0) <- t.seqs.(last);
      (* The vacated slot keeps a duplicate reference to the moved value,
         which stays live inside the heap — nothing dead is pinned. *)
      t.values.(0) <- t.values.(last);
      sift_down t 0
    end;
    top
  end

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_min t)

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.values <- [||];
  t.size <- 0

let rec drain t f =
  match pop t with
  | None -> ()
  | Some (time, v) ->
    f time v;
    drain t f
