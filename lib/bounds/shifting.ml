(** The shifting technique (paper §2.4, Theorem 1).

    [shift(R, x)] adds [x_i] to the real time of every step of process
    [p_i].  Each process's view is unchanged — only real times move —
    so the result is again a run of the same algorithm; what changes
    are the {e externally observable} quantities:

    - the clock offset of [p_i] becomes [c_i - x_i] (the local clock
      still shows the same values at the same steps);
    - the delay of a message from [p_i] to [p_j] becomes
      [delta - x_i + x_j].

    Sign convention: we use Theorem 1 exactly as stated — [x_i > 0]
    moves [p_i] {e later} in real time.  (The prose in the paper's §4
    proofs describes some shifts in the opposite, "earlier" sense; the
    constructions in {!Adversary} pick vectors that reproduce the
    stated delay outcomes under this single convention.)

    The functions below operate at two levels: on delay {e matrices}
    (for checking the proofs' arithmetic) and on engine {e traces}
    (for shifting actual runs of our algorithm and re-checking
    admissibility and linearizability). *)

(* Theorem 1 part 1: new clock offsets. *)
let shifted_offsets offsets x =
  if Array.length offsets <> Array.length x then
    invalid_arg "Shifting.shifted_offsets: length mismatch";
  Array.init (Array.length offsets) (fun i -> Rat.sub offsets.(i) x.(i))

(* Theorem 1 part 2: new delay of one message. *)
let shifted_delay ~delay ~x_src ~x_dst = Rat.add (Rat.sub delay x_src) x_dst

(* Apply Theorem 1 to a pair-wise uniform delay matrix. *)
let shift_matrix matrix x =
  let n = Array.length matrix in
  if Array.length x <> n then
    invalid_arg "Shifting.shift_matrix: length mismatch";
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then matrix.(i).(j)
          else shifted_delay ~delay:matrix.(i).(j) ~x_src:x.(i) ~x_dst:x.(j)))

(* Off-diagonal entries outside [d - u, d]. *)
let invalid_entries (model : Sim.Model.t) matrix =
  let n = Array.length matrix in
  let bad = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if i <> j && not (Sim.Model.delay_valid model matrix.(i).(j)) then
        bad := (i, j) :: !bad
    done
  done;
  !bad

(** {1 Trace-level shifting} *)

(* The process whose timed view an event belongs to: sends belong to
   the sender, deliveries to the receiver. *)
let event_owner : ('msg, 'inv, 'resp) Sim.Trace.event -> int = function
  | Invoke { proc; _ }
  | Respond { proc; _ }
  | Timer_set { proc; _ }
  | Timer_fire { proc; _ }
  | Timer_cancel { proc; _ } -> proc
  | Send { src; _ } -> src
  | Deliver { dst; _ } -> dst
  | Fault { fault = Dropped { src; _ } | Duplicated { src; _ } | Spiked { src; _ }; _ }
    -> src
  | Fault { fault = Crashed { proc; _ } | Skewed { proc; _ }; _ } -> proc

let retime_event x (event : ('msg, 'inv, 'resp) Sim.Trace.event) :
    ('msg, 'inv, 'resp) Sim.Trace.event =
  let shift_by proc time = Rat.add time x.(proc) in
  match event with
  | Invoke e -> Invoke { e with time = shift_by e.proc e.time }
  | Respond e -> Respond { e with time = shift_by e.proc e.time }
  | Timer_set e ->
      Timer_set
        {
          e with
          time = shift_by e.proc e.time;
          expiry = shift_by e.proc e.expiry;
        }
  | Timer_fire e -> Timer_fire { e with time = shift_by e.proc e.time }
  | Timer_cancel e -> Timer_cancel { e with time = shift_by e.proc e.time }
  | Send e ->
      (* The send step moves with the sender; the matching delivery
         moves with the receiver, so the recorded delay changes per
         Theorem 1. *)
      Send
        {
          e with
          time = shift_by e.src e.time;
          delay = shifted_delay ~delay:e.delay ~x_src:x.(e.src) ~x_dst:x.(e.dst);
        }
  | Deliver e -> Deliver { e with time = shift_by e.dst e.time }
  | Fault e -> Fault { e with time = shift_by (event_owner event) e.time }

(* shift(R, x) on a recorded trace: re-time every event by its owner's
   shift amount and re-sort chronologically.  Each process's view (its
   subsequence of events, with local clock values) is unchanged. *)
let shift_trace trace x =
  let events = List.map (retime_event x) (Sim.Trace.events trace) in
  let sorted =
    List.stable_sort
      (fun a b -> Rat.compare (Sim.Trace.event_time a) (Sim.Trace.event_time b))
      events
  in
  Sim.Trace.of_events sorted

(* Per-process event subsequence, without times: used to check that
   shifting leaves every view intact. *)
let view_signature trace proc =
  List.filter
    (fun event -> event_owner event = proc)
    (Sim.Trace.events trace)

(* A shifted run of a correct algorithm is admissible iff all delays
   remain in range and the new offsets respect the skew bound. *)
let trace_admissible (model : Sim.Model.t) ~offsets ~x trace =
  Sim.Trace.delays_admissible model (shift_trace trace x)
  && Sim.Model.skew_valid model (shifted_offsets offsets x)
