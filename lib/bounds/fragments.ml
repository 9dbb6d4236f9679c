(** Run fragments and appending (paper §4.1).

    The §4 proofs cut runs into fragments (which need not start in
    initial states), shift and chop them, and append them to other
    runs.  This module makes those operations — and the paper's four
    appendability conditions — executable on recorded traces:

    [R2] is {e appendable} to [R1] iff
    + [R1] is complete (every invocation has a response, every send a
      delivery);
    + [R1] and [R2] have the same clock functions (here: offset
      vectors);
    + [first-time(R2) > last-time(R1)];
    + for each process, its last state in [R1] equals its first state
      in [R2] — which, by History Oblivion, we check at the level the
      algorithms expose: equal replica states (the caller supplies a
      state witness, e.g. [Wtlw.replica_state]).

    The result of appending is the per-process concatenation of timed
    views; on traces that is simply event concatenation (condition 3
    keeps it chronological). *)

type ('msg, 'inv, 'resp) fragment = {
  events : ('msg, 'inv, 'resp) Sim.Trace.event list;
  offsets : Rat.t array;
}

let of_trace ~offsets trace =
  { events = Sim.Trace.events trace; offsets = Array.copy offsets }

let to_trace fragment = Sim.Trace.of_events fragment.events

let first_time fragment =
  match fragment.events with
  | [] -> None
  | event :: _ -> Some (Sim.Trace.event_time event)

let last_time fragment =
  match List.rev fragment.events with
  | [] -> None
  | event :: _ -> Some (Sim.Trace.event_time event)

(* Split a fragment at real time [t]: events strictly before [t] form
   the prefix, the rest the suffix (how the proofs carve out the
   suffix S following R_A(rho, C, D)). *)
let split ~at fragment =
  let before, after =
    List.partition
      (fun event -> Rat.lt (Sim.Trace.event_time event) at)
      fragment.events
  in
  ( { fragment with events = before },
    { fragment with events = after } )

(* Completeness of a fragment (paper: every operation invocation has a
   matching response and every send a matching receipt). *)
let complete fragment =
  let trace = to_trace fragment in
  Sim.Trace.pending_invocations trace = []
  &&
  let sends = ref 0 and deliveries = ref 0 in
  List.iter
    (function
      | Sim.Trace.Send _ -> incr sends
      | Sim.Trace.Deliver _ -> incr deliveries
      | _ -> ())
    fragment.events;
  !sends = !deliveries

let same_offsets f1 f2 =
  Array.length f1.offsets = Array.length f2.offsets
  && Array.for_all2 Rat.equal f1.offsets f2.offsets

(* The four appendability conditions.  [states_agree] stands in for
   condition 4 (per-process final/initial state equality), which lives
   at the algorithm level. *)
type verdict = {
  prefix_complete : bool;
  offsets_match : bool;
  times_ordered : bool;
  states_agree : bool;
}

let appendable_ok v =
  v.prefix_complete && v.offsets_match && v.times_ordered && v.states_agree

let check_appendable ~states_agree r1 r2 =
  {
    prefix_complete = complete r1;
    offsets_match = same_offsets r1 r2;
    times_ordered =
      (match (last_time r1, first_time r2) with
      | Some t1, Some t2 -> Rat.lt t1 t2
      | None, _ | _, None -> true);
    states_agree;
  }

(* The per-process concatenation of timed views. *)
let append r1 r2 =
  if not (same_offsets r1 r2) then
    invalid_arg "Fragments.append: offset vectors differ";
  { r1 with events = r1.events @ r2.events }

(* Shift and chop lift pointwise to fragments. *)
let shift fragment x =
  {
    events =
      Sim.Trace.events (Shifting.shift_trace (to_trace fragment) x);
    offsets = Shifting.shifted_offsets fragment.offsets x;
  }

let chop fragment ~cuts =
  {
    fragment with
    events = Sim.Trace.events (Chop.chop_trace (to_trace fragment) ~cuts);
  }
