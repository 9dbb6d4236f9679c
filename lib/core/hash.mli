(** The one stable hash for journal frame checksums, derived seeds and
    input fingerprints. *)

val fnv1a : string -> int
(** FNV-1a, 32-bit.  Unlike [Hashtbl.hash], its value is fixed across
    OCaml versions. *)

val fnv1a_after : int -> string -> int
(** [fnv1a_after (fnv1a a) b = fnv1a (a ^ b)]: continue a hash over
    more bytes, building no concatenation. *)

val fnv1a_bytes : Bytes.t -> pos:int -> len:int -> int
(** {!fnv1a} of the [len] bytes of [b] from [pos].
    @raise Invalid_argument if the range is not within [b]. *)
