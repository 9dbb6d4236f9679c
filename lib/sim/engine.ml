type ('msg, 'tag, 'resp) ctx = {
  mutable self : int;
  n : int;
  mutable real_time : Rat.t;
  mutable local_time : Rat.t;
  send : dst:int -> 'msg -> unit;
  broadcast : 'msg -> unit;
  set_timer_after : Rat.t -> 'tag -> int;
  cancel_timer : int -> unit;
  respond : 'resp -> unit;
}

type ('msg, 'tag, 'inv, 'resp) handlers = {
  on_invoke : ('msg, 'tag, 'resp) ctx -> 'inv -> unit;
  on_receive : ('msg, 'tag, 'resp) ctx -> src:int -> 'msg -> unit;
  on_timer : ('msg, 'tag, 'resp) ctx -> 'tag -> unit;
}

(* Queued events are flat [Event_queue] slots: the kind and two int
   fields say what the event is, packed into the slot's int tag, and
   the payload is the invocation, the message or the timer tag.  The
   payload's type is fixed by the kind, which is the invariant behind
   the three casts in [dispatch] — it is established by
   [schedule_invoke], [travel] and [set_timer_after], the only pushes. *)
let ev_invoke = 0 (* fst = proc *)
let ev_deliver = 1 (* fst = src, snd = dst *)
let ev_timer = 2 (* fst = proc, snd = timer id *)

(* [kind] takes 2 bits, [fst] (a process) 20 and [snd] (a process or a
   timer id) the 40 above them: 62 bits, so a tag is never negative.
   [create] bounds the processes and [set_timer_after] the timer ids. *)
let max_processes = 1 lsl 20
let max_timer_ids = 1 lsl 40

module Tag = struct
  let[@inline] pack ~kind ~fst ~snd = kind lor (fst lsl 2) lor (snd lsl 22)
  let[@inline] kind tag = tag land 3
  let[@inline] fst tag = (tag lsr 2) land (max_processes - 1)
  let[@inline] snd tag = tag lsr 22
end

type ('msg, 'tag, 'inv, 'resp) t = {
  model : Model.t;
  offsets : Rat.t array;
  (* Per-process clock perturbation injected by the fault plan, applied
     on top of [offsets] without re-validating the skew bound — that is
     the point of the Skew fault. *)
  skews : Rat.t array;
  (* offsets.(i) + skews.(i), fixed for the run: the local-clock
     translation applied to every dispatched event. *)
  local_offset : Rat.t array;
  injector : Fault.injector option;
  crash_at : Rat.t option array;
  crash_logged : bool array;
  delay : Net.t;
  handlers : ('msg, 'tag, 'inv, 'resp) handlers;
  queue : Obj.t Event_queue.t;
  (* Set by [release]: the queue may then belong to another engine. *)
  mutable released : bool;
  (* Its pairing sink is also the engine's one record of the
     invocation pending at each process. *)
  trace : ('msg, 'inv, 'resp) Trace.t;
  (* Timer id [i] is live while bit [i] is set: from [set_timer_after]
     until its queue entry pops or it is cancelled, whichever comes
     first.  Cancelling clears the bit, so a fired, cancelled or
     unknown id is left alone, and nothing outlives the queue entry. *)
  mutable live_timers : Bytes.t;
  (* Cancelled timers whose queue entry has not popped yet. *)
  mutable cancelled : int;
  send_seq : int array array;
  (* One ctx for the engine, built on the first dispatch and reused
     for every event after: only the process and the two clock fields
     change per event, so the hot loop re-stamps them instead of
     allocating a fresh record and five fresh closures.  The closures
     act for [current], the process being dispatched. *)
  mutable ctx : ('msg, 'tag, 'resp) ctx option;
  mutable current : int;
  mutable now : Rat.t;
  mutable next_timer_id : int;
  mutable on_response :
    proc:int -> inv:'inv -> resp:'resp -> time:Rat.t -> unit;
}

exception Step_limit_exceeded of int

(* The domain's spare queue: [create] takes it, leaving the slot empty,
   and [release] puts the engine's queue back, reset, once the run is
   over.  So an engine owns its queue alone, a run that never releases
   (one that raised, say) just builds the next run a fresh queue, and
   each domain — a pool worker, a shard — keeps its own spare.  A queue
   grown past [max_spare_capacity] slots is dropped rather than pinned
   for the domain's life. *)
let spare : Obj.t Event_queue.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let max_spare_capacity = 1024

let take_queue () =
  match Domain.DLS.get spare with
  | Some q ->
      Domain.DLS.set spare None;
      q
  | None -> Event_queue.create ()

let create ?(retain_events = true) ?(faults = Fault.none) ~model ~offsets
    ~delay ~handlers () =
  let n = (model : Model.t).n in
  (* First, before anything is sized by [n]: the n x n send counters
     and the O(n^2) skew check would otherwise run first. *)
  if n >= max_processes then
    invalid_arg
      (Printf.sprintf
         "Engine.create: n = %d processes do not fit the event tag (at most \
          2^20 - 1)"
         n);
  if Array.length offsets <> n then
    invalid_arg "Engine.create: offsets length must equal model.n";
  if not (Model.skew_valid model offsets) then
    invalid_arg "Engine.create: clock offsets violate the skew bound";
  let injector =
    if Fault.is_none faults then None
    else Some (Fault.instantiate faults)
  in
  let skews = Fault.skew_offsets faults ~n in
  let crash_at =
    Array.init n (fun proc -> Fault.crash_time faults ~proc)
  in
  let queue = take_queue () in
  let t =
    {
      model;
      offsets = Array.copy offsets;
      skews;
      local_offset = Array.init n (fun i -> Rat.add offsets.(i) skews.(i));
      injector;
      crash_at;
      crash_logged = Array.make n false;
      delay;
      handlers;
      queue;
      released = false;
      trace = Trace.create ~retain_events ~monitor:model ();
      live_timers = Bytes.make 64 '\000';
      cancelled = 0;
      send_seq = Array.make_matrix n n 0;
      ctx = None;
      current = 0;
      now = Rat.zero;
      next_timer_id = 0;
      on_response = (fun ~proc:_ ~inv:_ ~resp:_ ~time:_ -> ());
    }
  in
  Array.iteri
    (fun proc offset ->
      if Rat.sign offset <> 0 then
        Trace.fault t.trace ~time:Rat.zero (Fault.Skewed { proc; offset }))
    skews;
  t

let effective_offsets t = Array.copy t.local_offset

let now t = t.now
let trace t = t.trace

let check_held t fn =
  if t.released then
    invalid_arg ("Engine." ^ fn ^ ": the engine's queue was released")

let release t =
  if not t.released then begin
    t.released <- true;
    if Event_queue.capacity t.queue <= max_spare_capacity then begin
      Event_queue.reset t.queue;
      Domain.DLS.set spare (Some t.queue)
    end
  end

let schedule_invoke t ~at ~proc inv =
  check_held t "schedule_invoke";
  if Rat.lt at t.now then invalid_arg "Engine.schedule_invoke: time in past";
  if proc < 0 || proc >= t.model.n then
    invalid_arg "Engine.schedule_invoke: bad process id";
  Event_queue.push t.queue ~priority:1 ~time:at
    ~tag:(Tag.pack ~kind:ev_invoke ~fst:proc ~snd:0)
    (Obj.repr inv)

let set_response_callback t callback = t.on_response <- callback

(* One copy of a message that travels.  Priority 0: deliveries precede
   timers and invocations at the same instant (closed-interval delay
   semantics).  One Send per copy that actually travels; a dropped
   message keeps its Send (with the fault-free delay) but gets no
   Deliver. *)
let travel t ~src ~dst ~seq msg delay =
  Trace.send t.trace ~time:t.now ~src ~dst ~seq ~delay msg;
  Event_queue.push t.queue ~priority:0
    ~time:(Rat.add t.now delay)
    ~tag:(Tag.pack ~kind:ev_deliver ~fst:src ~snd:dst)
    (Obj.repr msg)

let send_message t ~src ~dst msg =
  if dst < 0 || dst >= t.model.n || dst = src then
    invalid_arg "Engine: bad send destination";
  let seq = t.send_seq.(src).(dst) in
  t.send_seq.(src).(dst) <- seq + 1;
  let delay = Net.delay t.delay ~src ~dst ~time:t.now ~seq in
  match t.injector with
  | None -> travel t ~src ~dst ~seq msg delay
  | Some inj ->
      let fate = Fault.decide inj ~src ~dst ~delay in
      if fate = 0 then travel t ~src ~dst ~seq msg delay
      else if fate land Fault.dropped <> 0 then (
        Trace.send t.trace ~time:t.now ~src ~dst ~seq ~delay msg;
        Trace.fault t.trace ~time:t.now (Fault.Dropped { src; dst; seq }))
      else
        let spiked = fate land Fault.spiked <> 0 in
        let duplicated = fate land Fault.duplicated <> 0 in
        let delay = if spiked then Fault.spike_delay inj else delay in
        travel t ~src ~dst ~seq msg delay;
        if duplicated then travel t ~src ~dst ~seq msg delay;
        if spiked then
          Trace.fault t.trace ~time:t.now
            (Fault.Spiked { src; dst; seq; delay });
        if duplicated then
          Trace.fault t.trace ~time:t.now (Fault.Duplicated { src; dst; seq })

let timer_live t id =
  id >= 0 && id < t.next_timer_id
  && Char.code (Bytes.get t.live_timers (id lsr 3)) land (1 lsl (id land 7)) <> 0

let flip_timer t id =
  let byte = id lsr 3 in
  Bytes.set t.live_timers byte
    (Char.chr (Char.code (Bytes.get t.live_timers byte) lxor (1 lsl (id land 7))))

(* A fresh id starts live; the bitmap doubles when the ids outgrow it. *)
let arm_timer t id =
  let len = Bytes.length t.live_timers in
  if id lsr 3 >= len then begin
    let bits = Bytes.make (2 * len) '\000' in
    Bytes.blit t.live_timers 0 bits 0 len;
    t.live_timers <- bits
  end;
  flip_timer t id

(* Build the engine's one ctx: the closures consult [t.current] and
   [t.now] at call time, so only the process and the two clock fields
   need re-stamping per event (done by [get_ctx]). *)
let build_ctx t =
  let set_timer_after dur tag =
    if Rat.sign dur < 0 then invalid_arg "Engine: negative timer duration";
    let id = t.next_timer_id in
    if id >= max_timer_ids then
      invalid_arg "Engine: timer id 2^40 does not fit the event tag";
    t.next_timer_id <- id + 1;
    let expiry = Rat.add t.now dur in
    let self = t.current in
    Trace.timer_set t.trace ~time:t.now ~proc:self ~id ~expiry;
    arm_timer t id;
    Event_queue.push t.queue ~priority:1 ~time:expiry
      ~tag:(Tag.pack ~kind:ev_timer ~fst:self ~snd:id)
      (Obj.repr tag);
    id
  in
  let cancel_timer id =
    if timer_live t id then begin
      flip_timer t id;
      t.cancelled <- t.cancelled + 1
    end;
    Trace.timer_cancel t.trace ~time:t.now ~proc:t.current ~id
  in
  let respond resp =
    let self = t.current in
    if not (Trace.is_pending t.trace self) then
      invalid_arg "Engine: respond with no pending operation";
    let inv = Trace.pending_invocation t.trace self in
    Trace.respond t.trace ~time:t.now ~proc:self ~inv resp;
    t.on_response ~proc:self ~inv ~resp ~time:t.now
  in
  let broadcast msg =
    let self = t.current in
    for dst = 0 to t.model.n - 1 do
      if dst <> self then send_message t ~src:self ~dst msg
    done
  in
  {
    self = t.current;
    n = t.model.n;
    real_time = t.now;
    local_time = t.now;
    send = (fun ~dst msg -> send_message t ~src:t.current ~dst msg);
    broadcast;
    set_timer_after;
    cancel_timer;
    respond;
  }

let get_ctx t ~self =
  let c =
    match t.ctx with
    | Some c -> c
    | None ->
        let c = build_ctx t in
        t.ctx <- Some c;
        c
  in
  t.current <- self;
  c.self <- self;
  c.real_time <- t.now;
  (* Most runs have zero offsets: skip the add, which would allocate a
     fresh fraction whenever [now] is one. *)
  let offset = t.local_offset.(self) in
  c.local_time <- (if Rat.sign offset = 0 then t.now else Rat.add t.now offset);
  c

(* Crash-stop: the process handles no event at real time >= its crash
   time.  The first suppressed event records a single Crashed fault. *)
let crashed t proc =
  match t.crash_at.(proc) with
  | Some at when Rat.ge t.now at ->
      if not t.crash_logged.(proc) then begin
        t.crash_logged.(proc) <- true;
        Trace.fault t.trace ~time:t.now (Fault.Crashed { proc; at })
      end;
      true
  | _ -> false

let dispatch t ~kind ~fst ~snd payload =
  if kind = ev_invoke then begin
    let proc = fst and inv : 'inv = Obj.obj payload in
    if crashed t proc then begin
      (* The invocation still happens from the client's point of view:
         record it (it will stay pending forever, which flags the run)
         but never run the handler.  Later invocations at a dead
         process are swallowed so the trace stays well-formed. *)
      if not (Trace.is_pending t.trace proc) then
        Trace.invoke t.trace ~time:t.now ~proc inv
    end
    else begin
      if Trace.is_pending t.trace proc then
        invalid_arg "Engine: invocation while an operation is pending";
      Trace.invoke t.trace ~time:t.now ~proc inv;
      t.handlers.on_invoke (get_ctx t ~self:proc) inv
    end
  end
  else if kind = ev_deliver then begin
    let src = fst and dst = snd and msg : 'msg = Obj.obj payload in
    if not (crashed t dst) then begin
      Trace.deliver t.trace ~time:t.now ~src ~dst msg;
      t.handlers.on_receive (get_ctx t ~self:dst) ~src msg
    end
  end
  else begin
    (* This queue entry ends the timer either way: a live id is retired
       here (whether or not the process also crashed), a cancelled one
       stops counting as pending. *)
    let proc = fst and id = snd and tag : 'tag = Obj.obj payload in
    if timer_live t id then begin
      flip_timer t id;
      if not (crashed t proc) then begin
        Trace.timer_fire t.trace ~time:t.now ~proc ~id;
        t.handlers.on_timer (get_ctx t ~self:proc) tag
      end
    end
    else t.cancelled <- t.cancelled - 1
  end

let cancelled_timers t = t.cancelled

exception Deadline_exceeded of { events : int }

let default_max_events = 1_000_000

let run ?(max_events = default_max_events) ?deadline t =
  check_held t "run";
  let steps = ref 0 in
  let rec loop () =
    if not (Event_queue.is_empty t.queue) then begin
      let q = t.queue in
      let time = Event_queue.min_time q and tag = Event_queue.min_tag q in
      let payload = Event_queue.pop_min q in
      incr steps;
      if !steps > max_events then raise (Step_limit_exceeded max_events);
      (* Poll the deadline on the first event and then every 64th: often
         enough that a wedged run is cut promptly, rarely enough that
         the closure call never shows on the hot path. *)
      (match deadline with
      | Some expired when !steps land 63 = 1 && expired () ->
          raise (Deadline_exceeded { events = !steps })
      | _ -> ());
      assert (Rat.ge time t.now);
      t.now <- time;
      dispatch t ~kind:(Tag.kind tag) ~fst:(Tag.fst tag) ~snd:(Tag.snd tag)
        payload;
      loop ()
    end
  in
  loop ()
