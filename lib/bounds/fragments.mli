(** Run fragments and appending (paper §4.1), executable on recorded
    traces: split a run at a quiescent point, shift/chop the pieces,
    check the paper's four appendability conditions, and concatenate
    timed views. *)

type ('msg, 'inv, 'resp) fragment = {
  events : ('msg, 'inv, 'resp) Sim.Trace.event list;
  offsets : Rat.t array;  (** the fragment's clock offset vector *)
}

val of_trace :
  offsets:Rat.t array ->
  ('msg, 'inv, 'resp) Sim.Trace.t ->
  ('msg, 'inv, 'resp) fragment

val to_trace : ('msg, 'inv, 'resp) fragment -> ('msg, 'inv, 'resp) Sim.Trace.t
val first_time : ('msg, 'inv, 'resp) fragment -> Rat.t option
val last_time : ('msg, 'inv, 'resp) fragment -> Rat.t option

val split :
  at:Rat.t ->
  ('msg, 'inv, 'resp) fragment ->
  ('msg, 'inv, 'resp) fragment * ('msg, 'inv, 'resp) fragment
(** Events strictly before [at] / the rest. *)

val complete : ('msg, 'inv, 'resp) fragment -> bool
(** No pending invocations, every send delivered. *)

(** The four appendability conditions of §4.1.  [states_agree] is
    condition 4 (per-process final/initial state equality, checked at
    the algorithm level by the caller, e.g. via
    [Wtlw.replica_state]). *)
type verdict = {
  prefix_complete : bool;
  offsets_match : bool;
  times_ordered : bool;
  states_agree : bool;
}

val appendable_ok : verdict -> bool

val check_appendable :
  states_agree:bool ->
  ('msg, 'inv, 'resp) fragment ->
  ('msg, 'inv, 'resp) fragment ->
  verdict

val append :
  ('msg, 'inv, 'resp) fragment ->
  ('msg, 'inv, 'resp) fragment ->
  ('msg, 'inv, 'resp) fragment
(** Per-process concatenation of timed views.
    @raise Invalid_argument if the offset vectors differ. *)

val shift : ('msg, 'inv, 'resp) fragment -> Rat.t array -> ('msg, 'inv, 'resp) fragment
(** {!Shifting.shift_trace} plus the Theorem 1 offset update. *)

val chop : ('msg, 'inv, 'resp) fragment -> cuts:Rat.t array -> ('msg, 'inv, 'resp) fragment
