(* Driving a protocol's handlers by hand, without an engine, to count
   what the protocol layer alone allocates.  The ctx's closures record
   each message sent and each timer tag set in arrays that grow only on
   a new high-water mark, so once a first round has warmed them,
   recording allocates nothing.  Timer ids are indices into [timers]
   (and [owners], the process that set each), counting up from 0 after
   each [clear]; [cancel_timer] and [respond] do nothing. *)

type 'a slots = { mutable items : 'a array; mutable len : int }

let push s x =
  if s.len = Array.length s.items then begin
    let items = Array.make (max 8 (2 * s.len)) x in
    Array.blit s.items 0 items 0 s.len;
    s.items <- items
  end;
  s.items.(s.len) <- x;
  s.len <- s.len + 1

type ('msg, 'tag, 'resp) t = {
  ctx : ('msg, 'tag, 'resp) Sim.Engine.ctx;
  sent : 'msg slots;  (* a broadcast is one entry *)
  timers : 'tag slots;
  owners : int slots;
}

let create ~n =
  let sent = { items = [||]; len = 0 }
  and timers = { items = [||]; len = 0 }
  and owners = { items = [||]; len = 0 } in
  let rec ctx =
    {
      Sim.Engine.self = 0;
      n;
      real_time = Rat.zero;
      local_time = Rat.zero;
      send = (fun ~dst:_ msg -> push sent msg);
      broadcast = (fun msg -> push sent msg);
      set_timer_after =
        (fun _ tag ->
          push timers tag;
          push owners ctx.Sim.Engine.self;
          timers.len - 1);
      cancel_timer = ignore;
      respond = ignore;
    }
  in
  { ctx; sent; timers; owners }

(* Act as process [self] at time [time] (clocks without offsets). *)
let at h ~self ~time =
  h.ctx.self <- self;
  h.ctx.real_time <- time;
  h.ctx.local_time <- time

let clear h =
  h.sent.len <- 0;
  h.timers.len <- 0;
  h.owners.len <- 0

(* One operation invoked at process 0 of [h.ctx.n], followed through
   the broadcast of its message to every copy being queued: each other
   process receives the message and then, with [~after_invoke], the
   last timer the invocation set (Algorithm 1's [Add]) fires at
   process 0.  Returns the minor words of the invocation and of the
   rest.  Then every other timer of the round fires at the process that
   set it, so the queues end empty, as they began. *)
let follow h (handlers : (_, _, _, _) Sim.Engine.handlers) ~time
    ~after_invoke inv =
  clear h;
  let start = Gc.minor_words () in
  at h ~self:0 ~time;
  handlers.on_invoke h.ctx inv;
  let invoked = Gc.minor_words () in
  let add = if after_invoke then h.timers.len - 1 else -1 in
  let msg = h.sent.items.(0) in
  for dst = 1 to h.ctx.n - 1 do
    at h ~self:dst ~time;
    handlers.on_receive h.ctx ~src:0 msg
  done;
  if after_invoke then begin
    at h ~self:0 ~time;
    handlers.on_timer h.ctx h.timers.items.(add)
  end;
  let queued = Gc.minor_words () in
  for id = 0 to h.timers.len - 1 do
    if id <> add then begin
      at h ~self:h.owners.items.(id) ~time:(Rat.add time Rat.one);
      handlers.on_timer h.ctx h.timers.items.(id)
    end
  done;
  (invoked -. start, queued -. invoked)
