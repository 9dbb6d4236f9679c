type config = { rto : Rat.t; max_retries : int }

let config ?(max_retries = 6) ~rto () =
  if Rat.sign rto <= 0 then invalid_arg "Reliable.config: rto must be positive";
  if max_retries < 0 then
    invalid_arg "Reliable.config: max_retries must be >= 0";
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

type 'tag timer = App of 'tag | Retransmit of { dst : int; seq : int; attempt : int }

type stats = {
  mutable sent : int;
  mutable retransmits : int;
  mutable acked : int;
  mutable duplicates : int;
  mutable exhausted : int;
}

type 'msg entry = { msg : 'msg; mutable timer : int }

(* A table keyed by the sequence numbers of one stream.  The keys in
   use lie in a window [lo, hi) that slides forward as the stream's
   oldest entries leave, held in a power-of-two ring: a lookup is an
   index and a flag test, and nothing is allocated but the ring.  The
   ring starts at 2 slots and doubles when full: most streams of a
   short run never hold more than one or two entries.  A vacated slot
   keeps its old value until it is reused, so at most one ring's worth
   of finished entries stays reachable. *)
module Window = struct
  type 'a t = {
    mutable lo : int;  (** every key below [lo] is absent *)
    mutable hi : int;  (** every key at or above [hi] is absent *)
    mutable present : bool array;
    mutable values : 'a array;
  }

  let create () = { lo = 0; hi = 0; present = [||]; values = [||] }
  let[@inline] slot w k = k land (Array.length w.present - 1)
  let mem w k = k >= w.lo && k < w.hi && w.present.(slot w k)

  (* The value under [k], which must be present. *)
  let find w k = w.values.(slot w k)

  (* Make room for the keys [lo, hi), re-laying the ring if it is too
     small; [v] fills a fresh ring. *)
  let reserve w ~lo ~hi v =
    let capacity = Array.length w.present in
    if hi - lo > capacity then begin
      let fresh = ref (max 2 capacity) in
      while hi - lo > !fresh do
        fresh := 2 * !fresh
      done;
      let present = Array.make !fresh false and values = Array.make !fresh v in
      let mask = !fresh - 1 in
      for k = w.lo to w.hi - 1 do
        let i = slot w k in
        present.(k land mask) <- w.present.(i);
        values.(k land mask) <- w.values.(i)
      done;
      w.present <- present;
      w.values <- values
    end

  let add w k v =
    if w.lo = w.hi then begin
      (* Empty: re-anchor the window at [k]. *)
      w.lo <- k;
      w.hi <- k
    end;
    let lo = min w.lo k and hi = max w.hi (k + 1) in
    reserve w ~lo ~hi v;
    w.lo <- lo;
    w.hi <- hi;
    w.present.(slot w k) <- true;
    w.values.(slot w k) <- v

  let remove w k =
    if mem w k then begin
      w.present.(slot w k) <- false;
      while w.lo < w.hi && not w.present.(slot w w.lo) do
        w.lo <- w.lo + 1
      done
    end
end

let wrap ~config:c ~n (handlers : ('msg, 'tag, 'inv, 'resp) Sim.Engine.handlers) =
  let stats =
    { sent = 0; retransmits = 0; acked = 0; duplicates = 0; exhausted = 0 }
  in
  let streams () = Array.init n (fun _ -> Array.init n (fun _ -> Window.create ())) in
  (* Sender side, per (self, dst) stream: the next sequence number and
     the payloads not yet acknowledged. *)
  let next_seq = Array.make_matrix n n 0 in
  let unacked : 'msg entry Window.t array array = streams () in
  (* Receiver side, per (self, src) stream: next sequence number to
     release to the application, plus the out-of-order hold-back
     buffer. *)
  let expected = Array.make_matrix n n 0 in
  let buffer : 'msg Window.t array array = streams () in
  let reliable_send (ctx : ('msg wire, 'tag timer, 'resp) Sim.Engine.ctx) ~dst
      msg =
    let src = ctx.self in
    let seq = next_seq.(src).(dst) in
    next_seq.(src).(dst) <- seq + 1;
    stats.sent <- stats.sent + 1;
    ctx.send ~dst (Payload { seq; msg });
    let timer =
      ctx.set_timer_after c.rto (Retransmit { dst; seq; attempt = 1 })
    in
    Window.add unacked.(src).(dst) seq { msg; timer }
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
    let self = ctx.self in
    match wire_msg with
    | Payload { seq; msg } ->
        (* Always ack — the sender may be retransmitting because the
           previous ack was lost.  Acks travel over the same faulty
           network and may themselves be dropped or duplicated. *)
        ctx.send ~dst:src (Ack { seq });
        let held = buffer.(self).(src) in
        if seq < expected.(self).(src) || Window.mem held seq then
          stats.duplicates <- stats.duplicates + 1
        else begin
          Window.add held seq msg;
          (* Release the in-order prefix to the application. *)
          while Window.mem held expected.(self).(src) do
            let e = expected.(self).(src) in
            let m = Window.find held e in
            Window.remove held e;
            expected.(self).(src) <- e + 1;
            handlers.on_receive (app_ctx ctx) ~src m
          done
        end
    | Ack { seq } ->
        let pending = unacked.(self).(src) in
        if Window.mem pending seq then begin
          ctx.cancel_timer (Window.find pending seq).timer;
          Window.remove pending seq;
          stats.acked <- stats.acked + 1
        end
        (* otherwise a duplicate or late ack *)
  in
  let on_timer (ctx : ('msg wire, 'tag timer, 'resp) Sim.Engine.ctx) tag =
    match tag with
    | App tag -> handlers.on_timer (app_ctx ctx) tag
    | Retransmit { dst; seq; attempt } ->
        let self = ctx.self in
        let pending = unacked.(self).(dst) in
        (* Absent: acked in the meantime. *)
        if Window.mem pending seq then begin
          let entry = Window.find pending seq in
          if attempt > c.max_retries then begin
            stats.exhausted <- stats.exhausted + 1;
            Window.remove pending seq
          end
          else begin
            stats.retransmits <- stats.retransmits + 1;
            ctx.send ~dst (Payload { seq; msg = entry.msg });
            (* Every retry waits rto; retry [max_retries] therefore
               departs retry_budget after the original send. *)
            entry.timer <-
              ctx.set_timer_after c.rto
                (Retransmit { dst; seq; attempt = attempt + 1 })
          end
        end
  in
  ({ Sim.Engine.on_invoke; on_receive; on_timer }, stats)
