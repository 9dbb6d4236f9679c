(* A retransmission timer's tag packs the payload's destination, its
   sequence number and the attempt the timer will start into one int:
   [dst] takes 20 bits (the engine's bound on processes), [attempt] the
   8 above, and [seq] the 34 above those — 62 bits, so a tag is never
   negative.  [config] bounds the attempts, [pack] the sequence numbers
   and [wrap] the destinations. *)
module Retransmit_tag = struct
  let dst_bits = 20
  let attempt_bits = 8
  let max_attempt = (1 lsl attempt_bits) - 1
  let seq_limit = 1 lsl (62 - dst_bits - attempt_bits)

  (* A timer fires with attempt [max_retries + 1] to abandon its
     payload, so that attempt must fit as well. *)
  let max_retries = max_attempt - 1

  let pack ~dst ~seq ~attempt =
    if seq >= seq_limit then
      invalid_arg
        "Reliable: sequence number 2^34 does not fit the retransmit tag";
    dst lor (attempt lsl dst_bits) lor (seq lsl (dst_bits + attempt_bits))

  let[@inline] dst tag = tag land ((1 lsl dst_bits) - 1)
  let[@inline] attempt tag = (tag lsr dst_bits) land max_attempt
  let[@inline] seq tag = tag lsr (dst_bits + attempt_bits)
end

type config = { rto : Rat.t; max_retries : int }

(* The one check of [max_retries], by [config] and by [wrap], so a
   config built as a record is refused like one built by [config]. *)
let check_max_retries ~site k =
  if k < 0 then invalid_arg (site ^ ": max_retries must be >= 0");
  if k > Retransmit_tag.max_retries then
    invalid_arg
      (Printf.sprintf
         "%s: max_retries %d exceeds %d, the most a retransmit tag counts to"
         site k Retransmit_tag.max_retries)

let config ?(max_retries = 6) ~rto () =
  if Rat.sign rto <= 0 then invalid_arg "Reliable.config: rto must be positive";
  check_max_retries ~site:"Reliable.config" max_retries;
  { rto; max_retries }

let default_config (model : Sim.Model.t) =
  config ~rto:(Rat.mul_int model.d 2) ()

(* The real time between the first and the last transmission of a
   payload. *)
let retry_budget c = Rat.mul_int c.rto c.max_retries

let effective_delay c ~d = Rat.add d (retry_budget c)

let inflated_model ?(extra_skew = Rat.zero) ?(max_spike = Rat.zero) c
    (model : Sim.Model.t) =
  let d' = Rat.max (effective_delay c ~d:model.d) (Rat.add model.d max_spike) in
  Sim.Model.make ~n:model.n ~d:d' ~u:d' ~eps:(Rat.add model.eps extra_skew)

type 'msg wire = Payload of { seq : int; msg : 'msg } | Ack of { seq : int }

type 'tag timer = App of 'tag | Retransmit of int

type stats = {
  mutable sent : int;
  mutable retransmits : int;
  mutable acked : int;
  mutable duplicates : int;
  mutable exhausted : int;
}

(* Each direction of each channel is a stream, numbered [self * n +
   peer] by the process that holds its state.  Each side keeps the
   stream's sequence numbers in use in a window [lo, hi) and its
   entries in a power-of-two ring indexed by [seq land (capacity - 1)],
   in parallel slot arrays.  A stream's rings are empty until its first
   entry, start at 2 slots and double when the window outgrows them:
   most streams of a short run never hold more than one or two
   entries.  A vacated slot keeps its old value until it is reused, so
   at most one ring's worth of finished payloads stays reachable. *)

(* [ring] re-laid at [capacity] slots for the keys [lo, hi); [fill]
   fills the rest. *)
let relay ring ~lo ~hi ~capacity fill =
  let fresh = Array.make capacity fill in
  let mask = capacity - 1 and old = Array.length ring - 1 in
  for k = lo to hi - 1 do
    fresh.(k land mask) <- ring.(k land old)
  done;
  fresh

(* The capacity a ring of [capacity] slots grows to, doubling from at
   least 2, to hold [width] keys. *)
let grown ~capacity width =
  let c = ref (max 2 capacity) in
  while width > !c do
    c := 2 * !c
  done;
  !c

let wrap ~config:c ~n (handlers : ('msg, 'tag, 'inv, 'resp) Sim.Engine.handlers) =
  check_max_retries ~site:"Reliable.wrap" c.max_retries;
  if n > 1 lsl Retransmit_tag.dst_bits then
    invalid_arg "Reliable.wrap: n above 2^20 does not fit the retransmit tag";
  let stats =
    { sent = 0; retransmits = 0; acked = 0; duplicates = 0; exhausted = 0 }
  in
  let streams = n * n in
  (* Sender side: the payloads not yet acknowledged, [sent_lo, sent_hi),
     [sent_hi] being the next sequence number.  A payload is unacked
     while its slot in [timers] holds its live retransmission timer's
     id, and absent when it holds -1 (the engine's ids count up from
     0). *)
  let sent_lo = Array.make streams 0 and sent_hi = Array.make streams 0 in
  let payloads : 'msg array array = Array.make streams [||] in
  let timers : int array array = Array.make streams [||] in
  (* Receiver side: [expected] is the next sequence number to release
     to the application, and the hold-back buffer holds the payloads in
     [expected, held_hi) that arrived ahead of it. *)
  let expected = Array.make streams 0 and held_hi = Array.make streams 0 in
  let held : 'msg array array = Array.make streams [||] in
  let present : bool array array = Array.make streams [||] in
  let unacked s seq =
    seq >= sent_lo.(s) && seq < sent_hi.(s)
    && timers.(s).(seq land (Array.length timers.(s) - 1)) >= 0
  in
  (* Acknowledged or abandoned: vacate [seq]'s slot and slide the
     window past the vacated slots at its front. *)
  let settle s seq =
    let ts = timers.(s) in
    let mask = Array.length ts - 1 in
    ts.(seq land mask) <- -1;
    while sent_lo.(s) < sent_hi.(s) && ts.(sent_lo.(s) land mask) < 0 do
      sent_lo.(s) <- sent_lo.(s) + 1
    done
  in
  let reliable_send (ctx : ('msg wire, 'tag timer, 'resp) Sim.Engine.ctx) ~dst
      msg =
    let s = (ctx.self * n) + dst in
    let seq = sent_hi.(s) in
    let tag = Retransmit (Retransmit_tag.pack ~dst ~seq ~attempt:1) in
    sent_hi.(s) <- seq + 1;
    stats.sent <- stats.sent + 1;
    ctx.send ~dst (Payload { seq; msg });
    let timer = ctx.set_timer_after c.rto tag in
    let capacity = Array.length timers.(s) and lo = sent_lo.(s) in
    if seq + 1 - lo > capacity then begin
      let capacity = grown ~capacity (seq + 1 - lo) in
      payloads.(s) <- relay payloads.(s) ~lo ~hi:seq ~capacity msg;
      timers.(s) <- relay timers.(s) ~lo ~hi:seq ~capacity (-1)
    end;
    let slot = seq land (Array.length timers.(s) - 1) in
    payloads.(s).(slot) <- msg;
    timers.(s).(slot) <- timer
  in
  (* One application-typed ctx over the wire-typed one, so the
     algorithm's handlers never see the envelope.  Built on the first
     event and then reused, like the engine's own: each event
     re-stamps the process and the clock fields and points [wire] at
     the ctx the engine passed, which the closures read at call
     time. *)
  let app = ref None in
  let app_ctx (ctx : ('msg wire, 'tag timer, 'resp) Sim.Engine.ctx) :
      ('msg, 'tag, 'resp) Sim.Engine.ctx =
    match !app with
    | Some (wire, app_ctx) ->
        wire := ctx;
        app_ctx.Sim.Engine.self <- ctx.self;
        app_ctx.real_time <- ctx.real_time;
        app_ctx.local_time <- ctx.local_time;
        app_ctx
    | None ->
        let wire = ref ctx in
        let send ~dst msg = reliable_send !wire ~dst msg in
        let app_ctx : ('msg, 'tag, 'resp) Sim.Engine.ctx =
          {
            self = ctx.self;
            n = ctx.n;
            real_time = ctx.real_time;
            local_time = ctx.local_time;
            send;
            broadcast =
              (fun msg ->
                let self = !wire.self in
                for dst = 0 to n - 1 do
                  if dst <> self then send ~dst msg
                done);
            set_timer_after = (fun dur tag -> !wire.set_timer_after dur (App tag));
            cancel_timer = (fun id -> !wire.cancel_timer id);
            respond = (fun resp -> !wire.respond resp);
          }
        in
        app := Some (wire, app_ctx);
        app_ctx
  in
  let on_invoke ctx inv = handlers.on_invoke (app_ctx ctx) inv in
  let on_receive (ctx : ('msg wire, 'tag timer, 'resp) Sim.Engine.ctx) ~src
      wire_msg =
    let s = (ctx.self * n) + src in
    match wire_msg with
    | Payload { seq; msg } ->
        (* Always ack — the sender may be retransmitting because the
           previous ack was lost.  Acks travel over the same faulty
           network and may themselves be dropped or duplicated. *)
        ctx.send ~dst:src (Ack { seq });
        if
          seq < expected.(s)
          || seq < held_hi.(s)
             && present.(s).(seq land (Array.length present.(s) - 1))
        then stats.duplicates <- stats.duplicates + 1
        else begin
          let lo = expected.(s) and hi = max held_hi.(s) (seq + 1) in
          let capacity = Array.length present.(s) in
          if hi - lo > capacity then begin
            let capacity = grown ~capacity (hi - lo) in
            held.(s) <- relay held.(s) ~lo ~hi:held_hi.(s) ~capacity msg;
            present.(s) <-
              relay present.(s) ~lo ~hi:held_hi.(s) ~capacity false
          end;
          held_hi.(s) <- hi;
          let mask = Array.length present.(s) - 1 in
          held.(s).(seq land mask) <- msg;
          present.(s).(seq land mask) <- true;
          (* Release the in-order prefix to the application. *)
          while
            expected.(s) < held_hi.(s) && present.(s).(expected.(s) land mask)
          do
            let slot = expected.(s) land mask in
            present.(s).(slot) <- false;
            expected.(s) <- expected.(s) + 1;
            handlers.on_receive (app_ctx ctx) ~src held.(s).(slot)
          done
        end
    | Ack { seq } ->
        if unacked s seq then begin
          ctx.cancel_timer timers.(s).(seq land (Array.length timers.(s) - 1));
          settle s seq;
          stats.acked <- stats.acked + 1
        end
        (* otherwise a duplicate or late ack *)
  in
  let on_timer (ctx : ('msg wire, 'tag timer, 'resp) Sim.Engine.ctx) tag =
    match tag with
    | App tag -> handlers.on_timer (app_ctx ctx) tag
    | Retransmit tag ->
        let dst = Retransmit_tag.dst tag and seq = Retransmit_tag.seq tag in
        let s = (ctx.self * n) + dst in
        (* Absent: acked in the meantime. *)
        if unacked s seq then begin
          let attempt = Retransmit_tag.attempt tag in
          if attempt > c.max_retries then begin
            stats.exhausted <- stats.exhausted + 1;
            settle s seq
          end
          else begin
            stats.retransmits <- stats.retransmits + 1;
            let slot = seq land (Array.length timers.(s) - 1) in
            ctx.send ~dst (Payload { seq; msg = payloads.(s).(slot) });
            (* Every retry waits rto; retry [max_retries] therefore
               departs retry_budget after the original send. *)
            let tag = Retransmit_tag.pack ~dst ~seq ~attempt:(attempt + 1) in
            timers.(s).(slot) <- ctx.set_timer_after c.rto (Retransmit tag)
          end
        end
  in
  ({ Sim.Engine.on_invoke; on_receive; on_timer }, stats)
