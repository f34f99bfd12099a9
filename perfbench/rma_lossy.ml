(* rma-lossy: 64 ranks on an 8x8 torus with MPI-3-style windows over
   Portals, under 1% Bernoulli wire loss, so the reliability shim and
   CRC-32C frames are on. Each rank issues a seeded closed-loop mix to
   random peers: 8-byte fetch_and_add, compare_and_swap inserts into a
   distributed linear-probing hash table, small gets, put+flush, and a
   few increments under an exclusive window lock.

   The same NI and codec as mpi-bypass, but with tiny frames, reads and
   atomics beside writes, and retransmission. *)

open Common

let name = "rma-lossy"
let side = 8
let ranks = side * side
let ops_per_rank = 32
let loss = 0.01
let counters = 8  (* 64-bit fetch-add words per window. *)
let slot_len = 16  (* Bytes one rank puts into each peer's window. *)
let table_slots = 80  (* Hash slots per window. *)
let crc = true
let uses_ni = true

let lock_word = 8 * counters  (* Incremented only under the exclusive lock. *)
let put_base = lock_word + 8
let hash_base = put_base + (slot_len * ranks)
let win_size = hash_base + (8 * table_slots)
let global_slots = ranks * table_slots

let scenario =
  [
    ("nodes", string_of_int ranks);
    ("topology", Printf.sprintf "torus2d:%dx%d" side side);
    ("transport", "offload");
    ("loss", Printf.sprintf "bernoulli:%g" loss);
    ("crc", "on");
    ("ops_per_rank", string_of_int ops_per_rank);
    ("mix", "30% fetch_and_add, 25% cas insert, 20% get, 20% put+flush, 5% locked increment");
    ("put_get_bytes", string_of_int slot_len);
    ("window_bytes", string_of_int win_size);
    ("loop", "closed");
  ]

let shape =
  { nodes = ranks; topology = Simnet.Topology.Torus2d (side, side); transport = Runtime.Offload }

type op =
  | Faa of { peer : int; word : int; delta : int }
  | Insert of { key : int64 }
  | Get of { peer : int }
  | Put of { peer : int; value : bytes }
  | Locked_inc of { peer : int }

type inputs = { seed : int; ops : op array array }

(* The op lists never depend on results, so a sequential replay of them
   predicts every counter and put slot exactly. *)
let inputs ~seed =
  let ops =
    Array.init ranks (fun rank ->
        let rng = Random.State.make [| seed; rank; 0x524d41 |] in
        let peer () =
          let p = Random.State.int rng (ranks - 1) in
          if p >= rank then p + 1 else p
        in
        Array.init ops_per_rank (fun i ->
            let r = Random.State.int rng 20 in
            if r < 6 then
              Faa
                {
                  peer = peer ();
                  word = Random.State.int rng counters;
                  delta = 1 + Random.State.int rng 7;
                }
            else if r < 11 then
              Insert
                { key = Int64.logor (Int64.shift_left (Int64.of_int (rank + 1)) 32) (Int64.of_int (i + 1)) }
            else if r < 15 then Get { peer = peer () }
            else if r = 19 then Locked_inc { peer = peer () }
            else Put { peer = peer (); value = pattern slot_len ~key:(mix2 (mix2 seed rank) i) }))
  in
  { seed; ops }

let home key = (mix (Int64.to_int key) land max_int) mod global_slots
let slot_owner g = g mod ranks
let slot_offset g = hash_base + (8 * (g / ranks))

type t = {
  inputs : inputs;
  world : Runtime.world;
  wins : Onesided.win array;
  nis : Portals.Ni.t array;
  faa_seen : (int * int, (int64 * int) list) Hashtbl.t;  (** (peer, word) -> (old, delta). *)
  claims : (int64 * int) list array;  (** Per rank: (key, global slot). *)
  mutable issued : int;
  mutable bad_gets : int;
  mutable digest : int;
}

let setup inputs ~lossless =
  let m = Span.start () in
  let world =
    Runtime.create_world ~seed:inputs.seed ~topology:shape.topology ~domains:1
      ~env_faults:false ~nodes:ranks ()
  in
  Span.stop "runtime.create_world" m;
  let fabric = world.Runtime.fabric in
  (* What create_world does for a lossy run, done explicitly so no
     process-wide run environment leaks into the replays. *)
  Simnet.Integrity.set_enabled (not lossless);
  if not lossless then begin
    Simnet.Fabric.set_fault_model fabric
      (Some (Simnet.Fault.bernoulli ~seed:inputs.seed ~p:loss ()));
    ignore (Reliability.attach fabric)
  end;
  let nis =
    Array.map
      (fun pid ->
        let m = Span.start () in
        let ni = Portals.Ni.create world.Runtime.transport ~id:pid () in
        Span.stop "setup.ni_create" m;
        ni)
      world.Runtime.ranks
  in
  let wins =
    Array.mapi
      (fun rank ni ->
        let m = Span.start () in
        let os = Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank () in
        let win = Onesided.Win.create os ~size:win_size in
        Span.stop "setup.win_create" m;
        win)
      nis
  in
  {
    inputs;
    world;
    wins;
    nis;
    faa_seen = Hashtbl.create 64;
    claims = Array.make ranks [];
    issued = 0;
    bad_gets = 0;
    digest = 0;
  }

let rank_main t ~rank =
  let w = t.wins.(rank) in
  let last_put = Array.make ranks (Bytes.make slot_len '\000') in
  let note i v = t.digest <- t.digest + mix2 (mix2 rank i) v in
  Array.iteri
    (fun i op ->
      match op with
      | Faa { peer; word; delta } ->
        t.issued <- t.issued + 1;
        let m = Span.start () in
        let old = Onesided.Win.fetch_and_add w ~rank:peer ~offset:(8 * word) (Int64.of_int delta) in
        Span.stop "win.fetch_and_add" m;
        let k = (peer, word) in
        Hashtbl.replace t.faa_seen k
          ((old, delta) :: Option.value (Hashtbl.find_opt t.faa_seen k) ~default:[]);
        note i (Int64.to_int old)
      | Insert { key } ->
        let h = home key in
        let rec probe n =
          let g = (h + n) mod global_slots in
          t.issued <- t.issued + 1;
          let m = Span.start () in
          let old =
            Onesided.Win.compare_and_swap w ~rank:(slot_owner g) ~offset:(slot_offset g)
              ~expected:0L ~desired:key
          in
          Span.stop "win.compare_and_swap" m;
          if old = 0L then t.claims.(rank) <- (key, g) :: t.claims.(rank)
          else if n + 1 < global_slots then probe (n + 1)
        in
        probe 0;
        note i (Int64.to_int key)
      | Get { peer } ->
        t.issued <- t.issued + 1;
        let m = Span.start () in
        let got =
          Onesided.Win.get w ~rank:peer ~offset:(put_base + (slot_len * rank)) ~len:slot_len
        in
        Span.stop "win.get" m;
        (* Read-your-writes: only this rank writes its slot on [peer]. *)
        if not (Bytes.equal got last_put.(peer)) then t.bad_gets <- t.bad_gets + 1;
        note i (Hashtbl.hash got)
      | Put { peer; value } ->
        t.issued <- t.issued + 1;
        let m = Span.start () in
        Onesided.Win.put w ~rank:peer ~offset:(put_base + (slot_len * rank)) value;
        Span.stop "win.put" m;
        let m = Span.start () in
        Onesided.Win.flush w ~rank:peer;
        Span.stop "win.flush" m;
        last_put.(peer) <- value
      | Locked_inc { peer } ->
        t.issued <- t.issued + 1;
        (* A read-modify-write that is only correct under mutual
           exclusion: a lost update shows in the final count. *)
        let m = Span.start () in
        Onesided.Win.lock w ~rank:peer Onesided.Exclusive;
        Span.stop "win.lock" m;
        let m = Span.start () in
        let v = Onesided.Win.get w ~rank:peer ~offset:lock_word ~len:8 in
        Span.stop "win.get" m;
        let next = Bytes.create 8 in
        Bytes.set_int64_le next 0 (Int64.succ (Bytes.get_int64_le v 0));
        let m = Span.start () in
        Onesided.Win.put w ~rank:peer ~offset:lock_word next;
        Span.stop "win.put" m;
        let m = Span.start () in
        Onesided.Win.flush w ~rank:peer;
        Span.stop "win.flush" m;
        let m = Span.start () in
        Onesided.Win.unlock w ~rank:peer;
        Span.stop "win.unlock" m)
    t.inputs.ops.(rank)

let run t =
  Runtime.spawn_ranks t.world (rank_main t);
  let m = Span.start () in
  Runtime.run ~until:sim_time_cap t.world;
  Span.stop "runtime.run" m

(* Final window contents against a sequential replay of the op lists:
   counters, the locked word and put slots must match exactly; the hash
   table, whose
   placement depends on the interleaving, must hold exactly the replayed
   key set, each key once, at a slot its probe path reaches. *)
let check t =
  let failed = ref t.bad_gets in
  let fail () = incr failed in
  let data = Array.map Onesided.Win.local_data t.wins in
  let want_counter = Array.make_matrix ranks counters 0L in
  let want_slot = Array.make_matrix ranks ranks (Bytes.make slot_len '\000') in
  let want_locked = Array.make ranks 0L in
  let keys = Hashtbl.create 1024 in
  Array.iteri
    (fun rank ops ->
      Array.iter
        (function
          | Faa { peer; word; delta } ->
            want_counter.(peer).(word) <- Int64.add want_counter.(peer).(word) (Int64.of_int delta)
          | Insert { key } -> Hashtbl.replace keys key ()
          | Get _ -> ()
          | Put { peer; value } -> want_slot.(peer).(rank) <- value
          | Locked_inc { peer } -> want_locked.(peer) <- Int64.succ want_locked.(peer))
        ops)
    t.inputs.ops;
  for peer = 0 to ranks - 1 do
    if Bytes.get_int64_le data.(peer) lock_word <> want_locked.(peer) then fail ();
    for word = 0 to counters - 1 do
      if Bytes.get_int64_le data.(peer) (8 * word) <> want_counter.(peer).(word) then fail ();
      (* Fetch-add linearizability: the fetched values, sorted, must
         chain from 0 by the deltas. *)
      let seen =
        List.sort compare (Option.value (Hashtbl.find_opt t.faa_seen (peer, word)) ~default:[])
      in
      ignore
        (List.fold_left
           (fun expect (old, delta) ->
             if old <> expect then fail ();
             Int64.add old (Int64.of_int delta))
           0L seen)
    done;
    for src = 0 to ranks - 1 do
      if not (Bytes.equal (Bytes.sub data.(peer) (put_base + (slot_len * src)) slot_len)
                want_slot.(peer).(src))
      then fail ()
    done
  done;
  let slot_value g = Bytes.get_int64_le data.(slot_owner g) (slot_offset g) in
  let claimed = Hashtbl.create 1024 in
  Array.iter
    (List.iter (fun (key, g) ->
         (* CAS claims are exclusive: no slot is won twice. *)
         if Hashtbl.mem claimed g then fail () else Hashtbl.replace claimed g key;
         if slot_value g <> key || not (Hashtbl.mem keys key) then fail ();
         let rec path n =
           let s = (home key + n) mod global_slots in
           if s <> g then begin
             if slot_value s = 0L then fail ();
             path (n + 1)
           end
         in
         path 0))
    t.claims;
  if Hashtbl.length claimed <> Hashtbl.length keys then fail ();
  let occupied = ref 0 in
  for g = 0 to global_slots - 1 do
    if slot_value g <> 0L then incr occupied
  done;
  if !occupied <> Hashtbl.length keys then fail ();
  let events, time_us = sim_fingerprint [ (t.world, shape) ] in
  {
    msgs = t.issued;
    attempted = t.issued;
    failed = !failed;
    sim_events = events;
    sim_time_us = time_us;
    digest = t.digest land max_int;
  }

let worlds t = [ (t.world, shape) ]
let registries t = [ Sim_engine.Scheduler.metrics t.world.Runtime.sched ]
let mpi_endpoints _ = []
