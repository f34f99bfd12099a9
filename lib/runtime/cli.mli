(** CLI plumbing for the [bin/portals_repro] front-end: closed-set name
    validation and comma-separated name lists, so a malformed
    [--transports] or [--axes] list dies with a clean usage error. *)

val transport_kind_of_string :
  string -> (World.transport_kind, string) result
(** The wire-placement names [--transport] accepts ([offload]/[mcp],
    [kernel], [rtscts]). *)

val pick : what:string -> valid:string list -> string -> (string, string) result
(** Validate one name against a closed set; the error spells the set
    out ("unknown transport "bogus" (valid: portals, gm, ...)"). *)

val pick_list :
  what:string -> valid:string list -> string -> (string list, string) result
(** Parse a comma-separated name list: each element validated with
    {!pick}, duplicates dropped (first wins), order preserved. [""] and
    ["all"] select the full set in [valid]'s order. *)
