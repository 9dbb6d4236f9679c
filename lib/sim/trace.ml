type ('msg, 'inv, 'resp) event =
  | Invoke of { time : Rat.t; proc : int; inv : 'inv }
  | Respond of { time : Rat.t; proc : int; inv : 'inv; resp : 'resp }
  | Send of {
      time : Rat.t;
      src : int;
      dst : int;
      seq : int;
      delay : Rat.t;
      msg : 'msg;
    }
  | Deliver of { time : Rat.t; src : int; dst : int; msg : 'msg }
  | Timer_set of { time : Rat.t; proc : int; id : int; expiry : Rat.t }
  | Timer_fire of { time : Rat.t; proc : int; id : int }
  | Timer_cancel of { time : Rat.t; proc : int; id : int }
  | Fault of { time : Rat.t; fault : Fault.kind }

type ('inv, 'resp) operation = {
  proc : int;
  inv : 'inv;
  resp : 'resp;
  inv_time : Rat.t;
  resp_time : Rat.t;
}

type ('msg, 'inv, 'resp) sink = {
  name : string;
  on_event : ('msg, 'inv, 'resp) event -> unit;
}

type violation = {
  at : Rat.t;
  src : int;
  dst : int;
  seq : int;
  delay : Rat.t;
}

type fault_counts = {
  dropped : int;
  duplicated : int;
  spiked : int;
  crashed : int;
  skewed : int;
}

let no_faults =
  { dropped = 0; duplicated = 0; spiked = 0; crashed = 0; skewed = 0 }

let total_faults c = c.dropped + c.duplicated + c.spiked + c.crashed + c.skewed

let sum_faults counts =
  List.fold_left
    (fun a c ->
      {
        dropped = a.dropped + c.dropped;
        duplicated = a.duplicated + c.duplicated;
        spiked = a.spiked + c.spiked;
        crashed = a.crashed + c.crashed;
        skewed = a.skewed + c.skewed;
      })
    no_faults counts

let pp_faults ppf c =
  Format.fprintf ppf
    "faults: %d dropped, %d duplicated, %d spiked, %d crashed, %d skewed"
    c.dropped c.duplicated c.spiked c.crashed c.skewed

(* Every built-in view below is maintained incrementally as events
   arrive: no accessor re-walks the event list.  The full event list
   itself is just one more sink — the retention sink — and the only one
   that costs O(events) memory; everything else is O(operations) (the
   pairing sink) or O(1) (counters, delay envelope, admissibility).

   Each event kind has its own entry point ([invoke], [send], ...) that
   does the bookkeeping from the event's fields and builds the event
   value only when something keeps it: the retention sink or a user
   sink.  With retention off and no sink, recording an event allocates
   nothing but what the pairing sink stores. *)
type ('msg, 'inv, 'resp) t = {
  retain : bool;
  mutable rev_events : ('msg, 'inv, 'resp) event list;
  mutable count : int;
  mutable sends : int;
  mutable delivers : int;
  (* Operation-pairing sink: invoke/response matching done online.
     The at-most-one-pending-operation constraint (§2.2) makes the
     pairing unambiguous, so one slot per process suffices.  The slot
     arrays are created (and grown) on demand, filled with the
     invocation that needed them, since there is no other ['inv] to
     fill them with. *)
  mutable pending_live : bool array;
  mutable pending_time : Rat.t array;
  mutable pending_inv : 'inv array;
  mutable pending : int;
  (* Completed operations in invocation order, ties in response order;
     the first [finished] slots are used, and the array doubles when
     full.  Once [handed] is set the operations go to an observer
     instead, and the array stays empty. *)
  mutable done_ops : ('inv, 'resp) operation array;
  mutable finished : int;
  mutable handed : bool;
  (* Stored operations' times are the recorded ones divided by this. *)
  mutable op_quantum : int;
  mutable malformed : string option;
  mutable op_observers : (('inv, 'resp) operation -> unit) list;
  (* Delay envelope: min/max over all sends (meaningless while [sends]
     is 0).  Delay admissibility is an interval test, so the envelope
     answers [delays_admissible] for any model in O(1). *)
  mutable delay_lo : Rat.t;
  mutable delay_hi : Rat.t;
  (* Admissibility monitor: flags the first out-of-bounds delay as it
     is recorded, against the model fixed at creation. *)
  monitor : Model.t option;
  mutable first_violation : violation option;
  (* Fault counters: one O(1) cell per injected-fault kind. *)
  mutable faults : fault_counts;
  mutable last : Rat.t;
  mutable extra_sinks : ('msg, 'inv, 'resp) sink list;
}

let create ?(retain_events = true) ?monitor () =
  {
    retain = retain_events;
    rev_events = [];
    count = 0;
    sends = 0;
    delivers = 0;
    pending_live = [||];
    pending_time = [||];
    pending_inv = [||];
    pending = 0;
    done_ops = [||];
    finished = 0;
    handed = false;
    op_quantum = 1;
    malformed = None;
    op_observers = [];
    delay_lo = Rat.zero;
    delay_hi = Rat.zero;
    monitor;
    first_violation = None;
    faults = no_faults;
    last = Rat.zero;
    extra_sinks = [];
  }

let retains_events t = t.retain

let add_sink t sink = t.extra_sinks <- t.extra_sinks @ [ sink ]

let on_operation t f = t.op_observers <- t.op_observers @ [ f ]

let event_time = function
  | Invoke { time; _ }
  | Respond { time; _ }
  | Send { time; _ }
  | Deliver { time; _ }
  | Timer_set { time; _ }
  | Timer_fire { time; _ }
  | Timer_cancel { time; _ }
  | Fault { time; _ } -> time

(* ---- bookkeeping, one function per event kind ---- *)

let tick t time =
  t.count <- t.count + 1;
  t.last <- time

(* Grow [a] to hold index [i], filling new slots with [fill]: the
   per-process slot arrays, one slot per process. *)
let grow a i fill =
  let len = Array.length a in
  if i < len then a
  else begin
    let b = Array.make (Stdlib.max (i + 1) (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let is_pending t proc =
  proc >= 0 && proc < Array.length t.pending_live && t.pending_live.(proc)

let note_invoke t ~time ~proc inv =
  tick t time;
  if t.malformed = None then
    if is_pending t proc then
      t.malformed <-
        Some "Trace.operations: overlapping invocations at a process"
    else if proc < 0 then
      t.malformed <- Some "Trace.operations: negative process id"
    else begin
      if proc >= Array.length t.pending_live then begin
        t.pending_live <- grow t.pending_live proc false;
        t.pending_time <- grow t.pending_time proc time;
        t.pending_inv <- grow t.pending_inv proc inv
      end;
      t.pending_live.(proc) <- true;
      t.pending_time.(proc) <- time;
      t.pending_inv.(proc) <- inv;
      t.pending <- t.pending + 1
    end

let rec observe op = function
  | [] -> ()
  | f :: rest ->
      f op;
      observe op rest

(* Store [op] after the first [len] operations of [ops], which are in
   invocation order with ties in response order, moving it back past
   those invoked after it; [ops] doubles when full.  Fed operations in
   response order, the moves are the history's inversions: pairs
   invoked in one order and completed in the other.  The one invoked
   first was pending when the other was invoked, and at most one
   operation per other process is, so each operation is passed at most
   [n - 1] times: no sort is needed.  Past the first eight slots,
   growth is by [Array.append]: [Array.make] of more than 256 words
   filled with the young [op] would force a minor collection, as
   [Array.stable_sort]'s scratch array would. *)
let insert_in_order ops len op =
  let ops =
    if len < Array.length ops then ops
    else if len = 0 then Array.make 8 op
    else Array.append ops ops
  in
  let i = ref len in
  while !i > 0 && Rat.gt ops.(!i - 1).inv_time op.inv_time do
    ops.(!i) <- ops.(!i - 1);
    decr i
  done;
  ops.(!i) <- op;
  ops

let note_respond t ~time ~proc resp =
  tick t time;
  if t.malformed = None then
    if not (is_pending t proc) then
      t.malformed <- Some "Trace.operations: response without invocation"
    else begin
      t.pending_live.(proc) <- false;
      t.pending <- t.pending - 1;
      let inv_time = t.pending_time.(proc) in
      let op =
        if t.op_quantum = 1 then
          { proc; inv = t.pending_inv.(proc); resp; inv_time; resp_time = time }
        else
          {
            proc;
            inv = t.pending_inv.(proc);
            resp;
            inv_time = Rat.div_int inv_time t.op_quantum;
            resp_time = Rat.div_int time t.op_quantum;
          }
      in
      if not t.handed then
        t.done_ops <- insert_in_order t.done_ops t.finished op;
      t.finished <- t.finished + 1;
      observe op t.op_observers
    end

let hand_over t f =
  t.handed <- true;
  on_operation t f

let set_operation_quantum t q =
  if q < 1 then invalid_arg "Trace.set_operation_quantum: q < 1";
  t.op_quantum <- q

let note_send t ~time ~src ~dst ~seq ~delay =
  tick t time;
  if t.sends = 0 then begin
    t.delay_lo <- delay;
    t.delay_hi <- delay
  end
  else if Rat.lt delay t.delay_lo then t.delay_lo <- delay
  else if Rat.gt delay t.delay_hi then t.delay_hi <- delay;
  t.sends <- t.sends + 1;
  match t.monitor with
  | Some model
    when t.first_violation = None && not (Model.delay_valid model delay) ->
      t.first_violation <- Some { at = time; src; dst; seq; delay }
  | _ -> ()

let note_deliver t ~time =
  tick t time;
  t.delivers <- t.delivers + 1

let note_fault t ~time (fault : Fault.kind) =
  tick t time;
  let c = t.faults in
  t.faults <-
    (match fault with
    | Fault.Dropped _ -> { c with dropped = c.dropped + 1 }
    | Fault.Duplicated _ -> { c with duplicated = c.duplicated + 1 }
    | Fault.Spiked _ -> { c with spiked = c.spiked + 1 }
    | Fault.Crashed _ -> { c with crashed = c.crashed + 1 }
    | Fault.Skewed _ -> { c with skewed = c.skewed + 1 })

(* ---- the sinks that keep events ---- *)

let[@inline] keeps t = match t.extra_sinks with [] -> t.retain | _ -> true

let rec feed event = function
  | [] -> ()
  | sink :: rest ->
      sink.on_event event;
      feed event rest

let keep t event =
  if t.retain then t.rev_events <- event :: t.rev_events;
  feed event t.extra_sinks

(* ---- entry points ---- *)

let invoke t ~time ~proc inv =
  note_invoke t ~time ~proc inv;
  if keeps t then keep t (Invoke { time; proc; inv })

let respond t ~time ~proc ~inv resp =
  note_respond t ~time ~proc resp;
  if keeps t then keep t (Respond { time; proc; inv; resp })

let send t ~time ~src ~dst ~seq ~delay msg =
  note_send t ~time ~src ~dst ~seq ~delay;
  if keeps t then keep t (Send { time; src; dst; seq; delay; msg })

let deliver t ~time ~src ~dst msg =
  note_deliver t ~time;
  if keeps t then keep t (Deliver { time; src; dst; msg })

let timer_set t ~time ~proc ~id ~expiry =
  tick t time;
  if keeps t then keep t (Timer_set { time; proc; id; expiry })

let timer_fire t ~time ~proc ~id =
  tick t time;
  if keeps t then keep t (Timer_fire { time; proc; id })

let timer_cancel t ~time ~proc ~id =
  tick t time;
  if keeps t then keep t (Timer_cancel { time; proc; id })

let fault t ~time fault =
  note_fault t ~time fault;
  if keeps t then keep t (Fault { time; fault })

(* A pre-built event goes through the same bookkeeping and is kept as
   is, never rebuilt. *)
let record t event =
  (match event with
  | Invoke { time; proc; inv } -> note_invoke t ~time ~proc inv
  | Respond { time; proc; resp; _ } -> note_respond t ~time ~proc resp
  | Send { time; src; dst; seq; delay; _ } ->
      note_send t ~time ~src ~dst ~seq ~delay
  | Deliver { time; _ } -> note_deliver t ~time
  | Fault { time; fault } -> note_fault t ~time fault
  | Timer_set { time; _ } | Timer_fire { time; _ } | Timer_cancel { time; _ }
    ->
      tick t time);
  if keeps t then keep t event

let of_events events =
  let t = create () in
  List.iter (record t) events;
  t

let events t =
  if not t.retain then
    invalid_arg "Trace.events: event retention is disabled";
  List.rev t.rev_events

let last_time t = t.last

let check_well_formed t =
  match t.malformed with None -> () | Some msg -> invalid_arg msg

let check_kept t =
  check_well_formed t;
  if t.handed then
    invalid_arg "Trace.operations: the completed operations were handed over"

(* [Array.sub] copies a major-heap array without forcing a minor
   collection, which [Array.of_list (operations t)] would: it fills a
   fresh major-heap array with a young first operation. *)
let operation_array t =
  check_kept t;
  Array.sub t.done_ops 0 t.finished

let operations t =
  check_kept t;
  let acc = ref [] in
  for i = t.finished - 1 downto 0 do
    acc := t.done_ops.(i) :: !acc
  done;
  !acc

let pending_invocations t =
  check_well_formed t;
  let acc = ref [] in
  for proc = Array.length t.pending_live - 1 downto 0 do
    if t.pending_live.(proc) then acc := (proc, t.pending_inv.(proc)) :: !acc
  done;
  !acc

let pending_invocation t proc =
  if not (is_pending t proc) then
    invalid_arg "Trace.pending_invocation: no invocation pending";
  t.pending_inv.(proc)

let message_delays t =
  List.filter_map
    (function
      | Send { src; dst; delay; _ } -> Some (src, dst, delay)
      | Invoke _ | Respond _ | Deliver _ | Timer_set _ | Timer_fire _
      | Timer_cancel _ | Fault _ -> None)
    (events t)

(* The envelope suffices: all delays lie in [d - u, d] iff the extreme
   ones do. *)
let delays_admissible model t =
  t.sends = 0
  || (Model.delay_valid model t.delay_lo && Model.delay_valid model t.delay_hi)

let first_inadmissible t = t.first_violation

let event_count t = t.count
let send_count t = t.sends
let deliver_count t = t.delivers
let fault_counts t = t.faults

let operation_count t =
  check_well_formed t;
  t.finished

let pending_count t =
  check_well_formed t;
  t.pending
