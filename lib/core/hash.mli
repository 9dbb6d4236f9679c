(** The one stable hash for journal frame checksums, derived seeds and
    input fingerprints. *)

val fnv1a : string -> int
(** FNV-1a, 32-bit.  Unlike [Hashtbl.hash], its value is fixed across
    OCaml versions. *)
