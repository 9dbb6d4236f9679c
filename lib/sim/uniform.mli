(** [Random.State.float rng 1.0], drawn without boxing a float.

    The stdlib draws its float as the 53 high bits of
    [Random.State.bits64], redrawn while they are 0, scaled by 2^-53;
    the float it returns is boxed.  {!bits} makes the same draw and
    returns the 53 bits as an int, so a caller that scales them in a
    local ([float_of_int (bits rng) *. scale]) gets the stdlib's float
    bit for bit, from the same state, and allocates nothing.  The fault
    injector's rolls and the workload generator's key draws are made
    this way. *)

val bits : Random.State.t -> int
(** The draw [Random.State.float rng 1.0] makes, as an int in
    [[1, 2^53)]; consumes the state exactly as it does. *)

val scale : float
(** 2^-53: [float_of_int (bits rng) *. scale] is
    [Random.State.float rng 1.0]. *)
