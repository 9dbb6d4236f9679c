(** The shifting technique (paper §2.4, Theorem 1).

    [shift(R, x)] adds [x_i] to the real time of every step of process
    [p_i]; views are unchanged, clock offsets become [c_i - x_i], and
    the delay of a message from [p_i] to [p_j] becomes
    [delta - x_i + x_j].  Sign convention: [x_i > 0] moves [p_i]
    {e later} (Theorem 1 verbatim; the §4 proofs' prose sometimes
    describes shifts in the "earlier" sense — {!Adversary} picks
    vectors reproducing the stated outcomes under this one
    convention). *)

val shifted_offsets : Rat.t array -> Rat.t array -> Rat.t array
(** Theorem 1 part 1: [c_i - x_i].
    @raise Invalid_argument on length mismatch. *)

val shifted_delay : delay:Rat.t -> x_src:Rat.t -> x_dst:Rat.t -> Rat.t
(** Theorem 1 part 2: [delta - x_src + x_dst]. *)

val shift_matrix : Rat.t array array -> Rat.t array -> Rat.t array array
(** Apply Theorem 1 to a pair-wise uniform delay matrix (diagonal
    untouched). *)

val invalid_entries : Sim.Model.t -> Rat.t array array -> (int * int) list
(** Off-diagonal entries outside [[d - u, d]], in row-major order. *)

(** {1 Trace-level shifting (on recorded runs of real algorithms)} *)

val event_owner : ('msg, 'inv, 'resp) Sim.Trace.event -> int
(** The process whose timed view the event belongs to (sends: the
    sender; deliveries: the receiver). *)

val shift_trace :
  ('msg, 'inv, 'resp) Sim.Trace.t -> Rat.t array -> ('msg, 'inv, 'resp) Sim.Trace.t
(** Re-time every event by its owner's shift amount (delays re-derived
    per Theorem 1) and re-sort chronologically.  Every process's view
    is unchanged. *)

val view_signature :
  ('msg, 'inv, 'resp) Sim.Trace.t -> int -> ('msg, 'inv, 'resp) Sim.Trace.event list
(** One process's event subsequence — for checking view preservation. *)

val trace_admissible :
  Sim.Model.t ->
  offsets:Rat.t array ->
  x:Rat.t array ->
  ('msg, 'inv, 'resp) Sim.Trace.t ->
  bool
(** Is [shift(trace, x)] admissible: all shifted delays in range and
    shifted offsets within the skew bound? *)
