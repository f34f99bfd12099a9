(* CRC-32C (Castagnoli), the polynomial iSCSI and modern RDMA NICs use
   for end-to-end frame protection. Plain table-driven byte-at-a-time:
   the simulator checksums a few KiB per message, not line rate. *)

(* Built eagerly at module initialisation: shards on other domains
   checksum concurrently, and forcing one [lazy] from two domains at
   once raises [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc buf ~pos ~len =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc :=
      table.((!crc lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let digest ?(pos = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32c.digest: range out of bounds";
  update 0 buf ~pos ~len

let digest_string s = digest (Bytes.unsafe_of_string s)
