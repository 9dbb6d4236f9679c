(* FNV-1a, 32-bit: the one stable hash behind journal frame checksums,
   derived seeds and input fingerprints.  Not [Hashtbl.hash]: that
   function is not specified across OCaml versions, and recorded
   fingerprints must stay comparable.  The hash of a byte sequence is a
   left fold over its bytes, so hashing a string after another's hash
   is hashing their concatenation, and no pass allocates. *)
let basis = 0x811c9dc5

let rec fold_bytes h b i stop =
  if i = stop then h
  else
    fold_bytes
      ((h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xFFFFFFFF)
      b (i + 1) stop

let fnv1a_after h s =
  fold_bytes h (Bytes.unsafe_of_string s) 0 (String.length s)

let fnv1a s = fnv1a_after basis s

let fnv1a_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Hash.fnv1a_bytes";
  fold_bytes basis b pos (pos + len)
