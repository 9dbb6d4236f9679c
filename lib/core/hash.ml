(* FNV-1a, 32-bit: the one stable hash behind journal frame checksums,
   derived seeds and input fingerprints.  Not [Hashtbl.hash]: that
   function is not specified across OCaml versions, and recorded
   fingerprints must stay comparable. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h
