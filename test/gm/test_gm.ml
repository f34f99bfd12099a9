open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

let setup () =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:3
  in
  let tp = Simnet.Transport.offload fabric in
  (sched, tp)

let tests =
  [
    Alcotest.test_case "message lands in a token without polling" `Quick
      (fun () ->
        (* OS bypass: the data is in the token buffer after the run even
           though the receiver never polled. *)
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let token = Bytes.create 64 in
        Gm.provide_receive_token rx token;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "dma-deposit");
        Scheduler.run sched;
        Alcotest.(check string) "in token buffer" "dma-deposit"
          (Bytes.sub_string token 0 11);
        Alcotest.(check int) "event pending, unobserved" 1 (Gm.pending_events rx));
    Alcotest.test_case "poll drains completions in order" `Quick (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        for _ = 1 to 3 do
          Gm.provide_receive_token rx (Bytes.create 16)
        done;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        List.iter
          (fun s -> Gm.send txp ~dst:(proc 1 0) (Bytes.of_string s))
          [ "one"; "two"; "three" ];
        Scheduler.run sched;
        let next () =
          match Gm.poll rx with
          | Some (Gm.Recv_complete { buffer; length; _ }) ->
            Bytes.sub_string buffer 0 length
          | Some (Gm.Send_complete _) -> "send?"
          | None -> "none"
        in
        Alcotest.(check string) "1st" "one" (next ());
        Alcotest.(check string) "2nd" "two" (next ());
        Alcotest.(check string) "3rd" "three" (next ());
        Alcotest.(check bool) "drained" true (Gm.poll rx = None));
    Alcotest.test_case "no token means a counted drop" `Quick (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "lost");
        Scheduler.run sched;
        Alcotest.(check int) "dropped" 1 (Gm.stats rx).Gm.drops_no_token;
        Alcotest.(check int) "no event" 0 (Gm.pending_events rx));
    Alcotest.test_case "token too small is skipped for a bigger one" `Quick
      (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let small = Bytes.create 4 and big = Bytes.create 64 in
        Gm.provide_receive_token rx small;
        Gm.provide_receive_token rx big;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "needs-the-big-one");
        Scheduler.run sched;
        Alcotest.(check string) "landed in big" "needs-the-big-one"
          (Bytes.sub_string big 0 17);
        (* The small token survives for later. *)
        Alcotest.(check int) "small still pooled" 1 (Gm.stats rx).Gm.tokens_available);
    Alcotest.test_case "send completion event fires" `Quick (fun () ->
        let sched, tp = setup () in
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        Gm.provide_receive_token rx (Bytes.create 16);
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "bye");
        Scheduler.run sched;
        (match Gm.poll txp with
        | Some (Gm.Send_complete { length; _ }) ->
          Alcotest.(check int) "length" 3 length
        | Some (Gm.Recv_complete _) | None -> Alcotest.fail "expected send event"));
    Alcotest.test_case "wait_event blocks until something arrives" `Quick
      (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        Gm.provide_receive_token rx (Bytes.create 16);
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        let woke = ref 0 in
        Scheduler.spawn sched (fun () ->
            Gm.wait_event rx;
            woke := Scheduler.now sched);
        Scheduler.at sched (Time_ns.ms 2.0) (fun () ->
            Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "x"));
        Scheduler.run sched;
        Alcotest.(check bool) "woke after the send" true (!woke > Time_ns.ms 2.0));
    Alcotest.test_case "closed port stops accepting" `Quick (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        Gm.provide_receive_token rx (Bytes.create 16);
        Gm.close rx;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "x");
        Scheduler.run sched;
        Alcotest.(check int) "nothing received" 0 (Gm.stats rx).Gm.receives);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"tokens never double-fill" ~count:100
         QCheck.(list_of_size Gen.(int_range 1 10) (int_range 1 32))
         (fun sizes ->
           let sched, tp = setup () in
           let rx = Gm.open_port tp ~id:(proc 1 0) in
           List.iter (fun _ -> Gm.provide_receive_token rx (Bytes.create 32)) sizes;
           let txp = Gm.open_port tp ~id:(proc 0 0) in
           List.iteri
             (fun i len ->
               Gm.send txp ~dst:(proc 1 0) (Bytes.make len (Char.chr (65 + (i mod 26)))))
             sizes;
           Scheduler.run sched;
           (* Every message got its own token, in order, undamaged. *)
           let rec collect acc =
             match Gm.poll rx with
             | Some (Gm.Recv_complete { buffer; length; _ }) ->
               collect (Bytes.sub_string buffer 0 length :: acc)
             | Some (Gm.Send_complete _) -> collect acc
             | None -> List.rev acc
           in
           let got = collect [] in
           List.length got = List.length sizes
           && List.for_all2
                (fun s (i, len) -> s = String.make len (Char.chr (65 + (i mod 26))))
                got
                (List.mapi (fun i l -> (i, l)) sizes)));
    Alcotest.test_case "taking a token keeps the rest in FIFO order" `Quick
      (fun () ->
        (* Tokens small1, big1, small2, big2: a big message takes big1 out
           of the middle, later ones find the rest in order, and a token
           provided after the tail was taken is still reachable. *)
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let small1 = Bytes.create 4 and big1 = Bytes.create 32 in
        let small2 = Bytes.create 4 and big2 = Bytes.create 32 in
        List.iter (Gm.provide_receive_token rx) [ small1; big1; small2; big2 ];
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        let big3 = Bytes.create 32 in
        Scheduler.spawn sched (fun () ->
            List.iter
              (fun s ->
                Gm.send txp ~dst:(proc 1 0) (Bytes.of_string s);
                Scheduler.delay sched (Time_ns.us 100.0))
              [ "big-one"; "s1"; "s2"; "big-two" ];
            (* The tail (big2) is gone; a new token must still be found. *)
            Gm.provide_receive_token rx big3;
            Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "big-three"));
        Scheduler.run sched;
        let landed tok n = Bytes.sub_string tok 0 n in
        Alcotest.(check (list string)) "each message in its token"
          [ "big-one"; "s1"; "s2"; "big-two"; "big-three" ]
          [ landed big1 7; landed small1 2; landed small2 2; landed big2 7;
            landed big3 9 ];
        Alcotest.(check int) "no drops" 0 (Gm.stats rx).Gm.drops_no_token;
        Alcotest.(check int) "pool empty" 0 (Gm.stats rx).Gm.tokens_available);
    Alcotest.test_case "send copies the buffer before returning" `Quick
      (fun () ->
        (* The sender may reuse its buffer as soon as [send] returns: the
           frame on the wire is its own image. *)
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let token = Bytes.create 64 in
        Gm.provide_receive_token rx token;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        let buf = Bytes.of_string "original-bytes" in
        Gm.send txp ~dst:(proc 1 0) buf;
        Bytes.fill buf 0 (Bytes.length buf) 'X';
        Scheduler.run sched;
        Alcotest.(check string) "original delivered" "original-bytes"
          (Bytes.sub_string token 0 14));
    Alcotest.test_case "send_with fills the frame once" `Quick (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let token = Bytes.create 64 in
        Gm.provide_receive_token rx token;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        let calls = ref 0 in
        let src = Bytes.of_string "payload" in
        Gm.send_with txp ~dst:(proc 1 0) ~len:10 ~fill:(fun frame ->
            incr calls;
            Alcotest.(check int) "frame length" 10 (Bytes.length frame);
            Bytes.blit_string "hd:" 0 frame 0 3;
            Bytes.blit src 0 frame 3 7);
        Bytes.fill src 0 7 'X';
        Scheduler.run sched;
        Alcotest.(check int) "fill called once" 1 !calls;
        (match Gm.poll rx with
        | Some (Gm.Recv_complete { buffer; length; _ }) ->
          Alcotest.(check string) "frame as filled" "hd:payload"
            (Bytes.sub_string buffer 0 length)
        | Some (Gm.Send_complete _) | None -> Alcotest.fail "expected a receive");
        match Gm.poll txp with
        | Some (Gm.Send_complete { length; _ }) ->
          Alcotest.(check int) "completion length" 10 length
        | Some (Gm.Recv_complete _) | None -> Alcotest.fail "expected send event");
  ]

let () = Alcotest.run "gm" [ ("port", tests) ]
