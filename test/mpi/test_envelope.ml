(* GM framing: the header writer and the in-place decoder that
   [Mpi_gm] builds and reads every GM message with. *)

open Mpi.Envelope

let env = { protocol = Eager; context = 3; src_rank = 5; tag = 0x01234567 }
let renv = { env with protocol = Rendezvous }

(* A frame as [Mpi_gm] builds it: a buffer of junk (frames start
   uninitialised), the header, then the payload. *)
let frame hdr payload =
  let n = String.length payload in
  let buf = Bytes.make (gm_header_size + n) '\xaa' in
  write_gm_header buf hdr;
  Bytes.blit_string payload 0 buf gm_header_size n;
  buf

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let cases =
  [
    ("eager", Gm_eager { env; pay_len = 3 }, "abc");
    ("rts", Gm_rts { env = renv; cookie = 1_000_009; total_len = 70_000 }, "");
    ("cts", Gm_cts { cookie = 1_000_009 }, "");
    ("data", Gm_data { cookie = 1_000_009; pay_len = 4 }, "xyz!");
  ]

let round_trip () =
  List.iter
    (fun (name, hdr, payload) ->
      (* Decode in a token larger than the message, as GM delivers it. *)
      let f = frame hdr payload in
      let token = Bytes.make (Bytes.length f + 100) '\x55' in
      Bytes.blit f 0 token 0 (Bytes.length f);
      match decode_gm token ~len:(Bytes.length f) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok got ->
        Alcotest.(check bool) (name ^ " header") true (got = hdr);
        Alcotest.(check string) (name ^ " payload in place") payload
          (Bytes.sub_string token gm_header_size (String.length payload)))
    cases

(* The frames the earlier copying encoder produced for [cases] (it wrote
   into a zero-filled buffer): the wire layout is unchanged. *)
let golden_frames =
  [
    ("eager", "6d0000030000000500000067452301030000000000000000000000000000000000616263");
    ("rts", "6d0101030000000500000067452301701101000000000049420f00000000000000");
    ("cts", "6d0200000000000000000000000000000000000000000049420f00000000000000");
    ("data", "6d0300000000000000000000000000040000000000000049420f0000000000000078797a21");
  ]

let golden () =
  List.iter
    (fun (name, hdr, payload) ->
      Alcotest.(check string) name (List.assoc name golden_frames)
        (hex (frame hdr payload)))
    cases

let is_error = function Ok _ -> false | Error _ -> true

let malformed () =
  let good = frame (Gm_cts { cookie = 7 }) "" in
  let with_byte i v =
    let b = Bytes.copy good in
    Bytes.set_uint8 b i v;
    b
  in
  List.iter
    (fun (name, buf, len) ->
      Alcotest.(check bool) name true (is_error (decode_gm buf ~len)))
    [
      ("empty", Bytes.empty, 0);
      ("one byte short", good, gm_header_size - 1);
      ("len past the buffer", good, gm_header_size + 1);
      ("bad magic", with_byte 0 0x6e, gm_header_size);
      ("unknown kind", with_byte 1 4, gm_header_size);
    ]

(* No input makes the decoder raise. *)
let never_raises =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode_gm returns, never raises" ~count:500
       QCheck.(pair (string_of_size Gen.(0 -- 64)) small_nat)
       (fun (s, len) ->
         let buf = Bytes.of_string s in
         (* Keep the magic often enough to reach the kind dispatch. *)
         if Bytes.length buf > 0 && len mod 2 = 0 then Bytes.set_uint8 buf 0 0x6d;
         match decode_gm buf ~len with Ok _ | Error _ -> true))

let () =
  Alcotest.run "envelope"
    [
      ( "gm-framing",
        [
          Alcotest.test_case "round trip, all four kinds" `Quick round_trip;
          Alcotest.test_case "golden frames match the old layout" `Quick golden;
          Alcotest.test_case "malformed input is an Error" `Quick malformed;
          never_raises;
        ] );
    ]
