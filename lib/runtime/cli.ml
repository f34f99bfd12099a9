(* CLI plumbing for bin/portals_repro: name-list parsing and
   validation, so "--transports gm,bogus" dies with a clean usage error,
   and the table of wire-placement names. *)

let split_csv s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let transport_kinds =
  [
    ("offload", World.Offload);
    ("mcp", World.Offload);
    ("kernel", World.Kernel_interrupt);
    ("rtscts", World.Rtscts);
  ]

let transport_kind_of_string s =
  match List.assoc_opt s transport_kinds with
  | Some k -> Ok k
  | None ->
    Error
      (Printf.sprintf "unknown transport %S (valid: offload|kernel|rtscts)" s)

(* Validate one name against a closed set, with the set spelled out in
   the error — what a usage error should look like. *)
let pick ~what ~valid s =
  if List.mem s valid then Ok s
  else
    Error
      (Printf.sprintf "unknown %s %S (valid: %s)" what s
         (String.concat ", " valid))

(* Parse a comma-separated name list: every element validated against
   [valid], duplicates removed (first occurrence wins), order preserved.
   [""] and ["all"] select the whole set. *)
let pick_list ~what ~valid s =
  match s with
  | "" | "all" -> Ok valid
  | s ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match pick ~what ~valid x with
        | Error _ as e -> e
        | Ok x -> go (if List.mem x acc then acc else x :: acc) rest
      )
    in
    (match split_csv s with
    | [] -> Error (Printf.sprintf "empty %s list" what)
    | xs -> go [] xs)
