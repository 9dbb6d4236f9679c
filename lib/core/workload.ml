(** Workload schedules and open-loop load generation.

    Two layers live here.  The {e schedule} layer (bottom of the file)
    is the original fixed-script API: explicit [entry] lists for small,
    hand-shaped runs.  The {e generator} layer ({!arrival}, {!Gen},
    {!Route}) produces production-shaped traffic: open-loop arrival
    processes (Poisson, bursty, diurnal) over exact [Rat] time,
    Zipf-skewed object keys, and per-type invocation mixes — all
    seed-deterministic and streaming, so a million-operation schedule
    is pulled one item at a time and never materializes as a list.

    The §2.2 model allows at most one pending operation per process, so
    open-loop schedules must space invocations at a process further
    apart than the worst-case operation latency (at most [d + eps] for
    the paper's algorithm, [2d] for the centralized baseline — [2d +
    eps] is always safe).  Closed-loop workloads (invoke the next
    operation when the previous one responds) are driven by
    {!Runtime} via the engine's response callback and need no spacing
    assumption; generator-driven runs use {!Route}, whose consumer
    clamps each arrival to the previous response ([Runtime]'s [Paced]
    workload), so overload degrades into backpressure instead of a
    constraint violation. *)

type 'inv entry = { proc : int; at : Rat.t; inv : 'inv }

let entry ~proc ~at inv = { proc; at; inv }

(* ------------------------------------------------------------------ *)
(* Arrival processes.                                                  *)

(* Open-loop arrival processes over [Rat] time.  Rates are operations
   per simulated time unit.  [Bursty] emits geometric bursts of [size]
   simultaneous arrivals whose starts come at [rate/size], so the
   long-run operation rate stays [rate].  [Diurnal] modulates a Poisson
   process by a sinusoidal day curve: instantaneous intensity swings
   between [trough * rate] and [rate] with the given [period]. *)
type arrival =
  | Poisson of { rate : Rat.t }
  | Bursty of { rate : Rat.t; size : int }
  | Diurnal of { rate : Rat.t; period : Rat.t; trough : Rat.t }

let arrival_label = function
  | Poisson { rate } -> Printf.sprintf "poisson(rate=%s)" (Rat.to_string rate)
  | Bursty { rate; size } ->
      Printf.sprintf "bursty(rate=%s,size=%d)" (Rat.to_string rate) size
  | Diurnal { rate; period; trough } ->
      Printf.sprintf "diurnal(rate=%s,period=%s,trough=%s)" (Rat.to_string rate)
        (Rat.to_string period) (Rat.to_string trough)

let validate_arrival = function
  | Poisson { rate } ->
      if Rat.sign rate <= 0 then invalid_arg "Workload: arrival rate <= 0"
  | Bursty { rate; size } ->
      if Rat.sign rate <= 0 then invalid_arg "Workload: arrival rate <= 0";
      if size < 1 then invalid_arg "Workload: burst size < 1"
  | Diurnal { rate; period; trough } ->
      if Rat.sign rate <= 0 then invalid_arg "Workload: arrival rate <= 0";
      if Rat.sign period <= 0 then invalid_arg "Workload: diurnal period <= 0";
      if not (Rat.in_range ~lo:Rat.zero ~hi:Rat.one trough) then
        invalid_arg "Workload: diurnal trough outside [0, 1]"

(* A generated arrival: when, which object key, which invocation. *)
type 'inv keyed = { at : Rat.t; key : int; inv : 'inv }

(* ------------------------------------------------------------------ *)
(* Streaming generator.                                                *)

module Gen = struct
  (* An arrival process lowered to floats once, at [create]: the draw
     loop reads the means it needs instead of converting the process's
     rationals on every draw. *)
  type shape =
    | Exp of { mean : float }
    | Burst of { mean : float; size : int }
    | Day of { mean : float; period : float; trough : float }

  type 'inv t = {
    rng : Random.State.t;
    shape : shape;
    cum : float array;  (* cumulative Zipf key weights *)
    ops : int;
    invocation : Random.State.t -> key:int -> seq:int -> 'inv;
    mutable emitted : int;
    mutable now : int;  (* in quanta *)
    mutable burst_left : int;
  }

  (* Sampled durations are rounded to this denominator so generated
     times are exact small rationals: simulation arithmetic stays on
     the unboxed [Rat] fast path and admissibility checks are free of
     float noise.  Time is kept as an integer count of quanta, and an
     arrival's [Rat.t] is built only when the arrival is kept. *)
  let quantum = 1024

  let lower = function
    | Poisson { rate } -> Exp { mean = 1.0 /. Rat.to_float rate }
    | Bursty { rate; size } ->
        Burst { mean = float_of_int size /. Rat.to_float rate; size }
    | Diurnal { rate; period; trough } ->
        Day
          {
            mean = 1.0 /. Rat.to_float rate;
            period = Rat.to_float period;
            trough = Rat.to_float trough;
          }

  (* [exp_gap] draws u from the lattice [i / 1_000_001], i >= 1, so the
     longest gap it can return is [-log (1 / 1_000_001)], about 13.82
     means; a diurnal gap is further divided by the intensity, which
     never falls below [trough]. *)
  let max_gap = function
    | Exp { mean } | Burst { mean; _ } -> log 1_000_001. *. mean
    | Day { mean; trough; _ } -> log 1_000_001. *. mean /. trough

  let zipf_cum ~keys ~s =
    let w = Array.init keys (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w

  let validate ~arrival ?(zipf = 0.0) ~keys ~ops () =
    validate_arrival arrival;
    if keys < 1 then invalid_arg "Workload.Gen.create: keys < 1";
    if ops < 0 then invalid_arg "Workload.Gen.create: ops < 0";
    if not (Float.is_finite zipf) then
      invalid_arg
        "Workload.Gen.create: zipf is nan or infinite, not a skew exponent";
    if zipf < 0.0 then invalid_arg "Workload.Gen.create: zipf < 0";
    (* Every time in the stream is an int count of quanta, so [ops]
       gaps of the longest drawable length must fit in one; the test
       is false for an infinite or nan gap too. *)
    let gap = max_gap (lower arrival) in
    if
      not
        (((gap *. float_of_int quantum) +. 1.0)
         *. float_of_int (Stdlib.max ops 1)
        < float_of_int max_int)
    then
      invalid_arg
        (Printf.sprintf
           "Workload.Gen.create: unrepresentable arrival gap: %s can draw a \
            gap of %g time units, and %d of them do not fit in int quanta"
           (arrival_label arrival) gap ops)

  let create ~arrival ?(zipf = 0.0) ~keys ~ops ~seed ~invocation () =
    validate ~arrival ~zipf ~keys ~ops ();
    {
      rng = Random.State.make [| 0x6c6f6164; seed |];
      shape = lower arrival;
      cum = zipf_cum ~keys ~s:zipf;
      ops;
      invocation;
      emitted = 0;
      now = 0;
      burst_left = 0;
    }

  (* Positive quantized duration, in quanta (at least one, capping the
     effective rate at [quantum] per time unit). *)
  let[@inline] quantize f =
    Stdlib.max 1 (int_of_float (Float.round (f *. float_of_int quantum)))

  (* Inverse-CDF exponential with u drawn uniformly from a fixed
     million-point lattice: seed-deterministic and bounded away from
     log 0. *)
  let[@inline] exp_gap rng ~mean =
    let u = (float_of_int (Random.State.int rng 1_000_000) +. 1.0) /. 1_000_001. in
    -.log u *. mean

  let two_pi = 8.0 *. atan 1.0

  let gap t =
    match t.shape with
    | Exp { mean } -> quantize (exp_gap t.rng ~mean)
    | Burst { mean; size } ->
        if t.burst_left > 0 then begin
          t.burst_left <- t.burst_left - 1;
          0
        end
        else begin
          t.burst_left <- size - 1;
          quantize (exp_gap t.rng ~mean)
        end
    | Day { mean; period; trough } ->
        (* Thin a base Poisson stream by the day curve: the sampled gap
           stretches when the instantaneous intensity is low. *)
        let base = exp_gap t.rng ~mean in
        (* [now / quantum] is the exact value [Rat.to_float] gave for
           the reduced fraction: both divide by a power of two. *)
        let now = float_of_int t.now /. float_of_int quantum in
        let phase = two_pi *. now /. period in
        let intensity =
          trough +. ((1.0 -. trough) *. (1.0 +. sin phase) /. 2.0)
        in
        quantize (base /. intensity)

  (* The key's uniform is [Random.State.float t.rng 1.0], scaled in
     this local so that it is never boxed. *)
  let draw_key t =
    let n = Array.length t.cum in
    if n = 1 then 0
    else begin
      let u = float_of_int (Sim.Uniform.bits t.rng) *. Sim.Uniform.scale in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.cum.(mid) >= u then hi := mid else lo := mid + 1
      done;
      !lo
    end

  (* The one generation step: draw arrivals until [keep] accepts one
     and return [kept now key inv] for it (its time in quanta), or
     [exhausted] once [ops] arrivals are drawn.  Arrivals on other
     keys draw their gap, key and invocation exactly as kept ones do,
     so every filter sees the same global stream, but build nothing
     else. *)
  let rec pull t ~keep ~kept ~exhausted =
    if t.emitted >= t.ops then exhausted
    else begin
      t.now <- t.now + gap t;
      let key = draw_key t in
      let inv = t.invocation t.rng ~key ~seq:t.emitted in
      t.emitted <- t.emitted + 1;
      if keep key then kept t.now key inv else pull t ~keep ~kept ~exhausted
    end

  let keep_all _ = true

  let next t =
    pull t ~keep:keep_all ~exhausted:None ~kept:(fun now key inv ->
        Some { at = Rat.make now quantum; key; inv })
end

(* ------------------------------------------------------------------ *)
(* Routing a stream onto processes.                                    *)

module Route = struct
  (* One process's dealt but not yet pulled arrivals: a ring of
     parallel arrays, so dealing an arrival writes three slots and
     allocates nothing.  The arrays start empty and are created (and
     doubled) on demand, filled with the invocation that needed them,
     since there is no other ['inv] to fill them with. *)
  type 'inv ring = {
    mutable quanta : int array;  (* generated times, in quanta *)
    mutable key : int array;
    mutable inv : 'inv array;
    mutable head : int;
    mutable len : int;
  }

  type 'inv t = {
    gen : 'inv Gen.t;
    keep : int -> bool;
    procs : int;
    rings : 'inv ring array;
    last : Rat.t array;  (* last clamped arrival {!next} gave per process *)
    min_gap : Rat.t;
    mutable next_proc : int;
    deal : int -> int -> 'inv -> bool;  (* [Gen.pull]'s [kept] *)
  }

  let grow r inv =
    let cap = Array.length r.key in
    let cap' = Stdlib.max 4 (2 * cap) in
    let quanta = Array.make cap' 0
    and key = Array.make cap' 0
    and inv = Array.make cap' inv in
    for j = 0 to r.len - 1 do
      let i = (r.head + j) mod cap in
      quanta.(j) <- r.quanta.(i);
      key.(j) <- r.key.(i);
      inv.(j) <- r.inv.(i)
    done;
    r.quanta <- quanta;
    r.key <- key;
    r.inv <- inv;
    r.head <- 0

  (* Deal a kept arrival to the next process in the round.  Returns
     [true], which [fill]'s [Gen.pull] passes back. *)
  let deal_to t now key inv =
    let p = t.next_proc in
    t.next_proc <- (if p + 1 = t.procs then 0 else p + 1);
    let r = t.rings.(p) in
    if r.len = Array.length r.key then grow r inv;
    let cap = Array.length r.key in
    let i = r.head + r.len in
    let i = if i >= cap then i - cap else i in
    r.quanta.(i) <- now;
    r.key.(i) <- key;
    r.inv.(i) <- inv;
    r.len <- r.len + 1;
    true

  let create ?(min_gap = Rat.zero) ~procs ~keep gen =
    if procs < 1 then invalid_arg "Workload.Route.create: procs < 1";
    if Rat.sign min_gap < 0 then
      invalid_arg "Workload.Route.create: min_gap < 0";
    let rec t =
      {
        gen;
        keep;
        procs;
        rings =
          Array.init procs (fun _ ->
              { quanta = [||]; key = [||]; inv = [||]; head = 0; len = 0 });
        (* Seeded so the first clamp is a no-op. *)
        last = Array.make procs (Rat.neg min_gap);
        min_gap;
        next_proc = 0;
        deal = (fun now key inv -> deal_to t now key inv);
      }
    in
    t

  (* Generate until ring [r] holds an arrival; false once the stream is
     exhausted.  Arrivals are dealt round-robin as they are generated;
     those for other processes wait in their rings until their process
     pulls, so nothing is materialized. *)
  let rec fill t r =
    r.len > 0
    || (Gen.pull t.gen ~keep:t.keep ~kept:t.deal ~exhausted:false && fill t r)

  (* Dequeue [proc]'s next arrival and return its ring slot, or -1
     when the stream is exhausted for [proc].  The slot stays intact
     until the next deal. *)
  let dequeue t ~proc =
    if proc < 0 || proc >= t.procs then
      invalid_arg "Workload.Route: proc outside [0, procs)";
    let r = t.rings.(proc) in
    if fill t r then begin
      let i = r.head in
      r.head <- (if i + 1 = Array.length r.key then 0 else i + 1);
      r.len <- r.len - 1;
      i
    end
    else -1

  (* Without a [min_gap] the clamp is the identity: a process's
     arrivals come out of one nondecreasing stream, so each is no
     earlier than the one before it, and the generated time in quanta
     is the invocation time. *)
  let pop t ~proc =
    if Rat.sign t.min_gap > 0 then
      invalid_arg "Workload.Route.pop: a route with a min_gap needs next";
    dequeue t ~proc

  let quanta t ~proc i = t.rings.(proc).quanta.(i)
  let key t ~proc i = t.rings.(proc).key.(i)
  let inv t ~proc i = t.rings.(proc).inv.(i)

  (* A process's arrivals are clamped in the order it pulls them, which
     is the order they were dealt to it. *)
  let next t ~proc =
    let i = dequeue t ~proc in
    if i < 0 then None
    else
      let r = t.rings.(proc) in
      let generated = Rat.make r.quanta.(i) Gen.quantum in
      let floor =
        if Rat.sign t.min_gap = 0 then t.last.(proc)
        else Rat.add t.last.(proc) t.min_gap
      in
      let at = Rat.max generated floor in
      t.last.(proc) <- at;
      Some (at, { at = generated; key = r.key.(i); inv = r.inv.(i) })
end

(* Drain a generator into an explicit schedule: a [Route] with every
   key kept, pulled round-robin.  Route deals the k-th arrival to
   process [k mod procs], so pulling processes in that cycle yields
   the entries in generation order, and the first exhausted process
   marks the end of the stream. *)
let materialize ~procs ~min_gap gen =
  if procs < 1 then invalid_arg "Workload.materialize: procs < 1";
  let route = Route.create ~min_gap ~procs ~keep:Gen.keep_all gen in
  let rec loop proc acc =
    match Route.next route ~proc with
    | None -> List.rev acc
    | Some (at, item) ->
        loop ((proc + 1) mod procs) ({ proc; at; inv = item } :: acc)
  in
  loop 0 []

(* ------------------------------------------------------------------ *)
(* Fixed schedules.                                                    *)

(* Every process invokes [per_proc] operations, the k-th at
   [k*spacing]. *)
let open_loop ~n ~per_proc ~spacing ~gen () =
  List.concat
    (List.init n (fun proc ->
         List.init per_proc (fun k ->
             { proc; at = Rat.mul_int spacing k; inv = gen ~proc ~k })))

(* Open-loop schedule with invocations drawn from the data type's
   random generator; deterministic for a fixed seed. *)
let random_open_loop ~n ~per_proc ~spacing ~seed ~gen_invocation () =
  let rng = Random.State.make [| seed |] in
  (* Pre-draw in a fixed order so the schedule does not depend on
     evaluation order. *)
  let draws =
    Array.init (n * per_proc) (fun _ -> gen_invocation rng)
  in
  open_loop ~n ~per_proc ~spacing
    ~gen:(fun ~proc ~k -> draws.((proc * per_proc) + k))
    ()

(* A schedule in which distinct processes invoke concurrently: process
   [i] invokes its k-th operation at [k*spacing + jitter_i]
   where jitter cycles through small distinct offsets, creating real
   overlap between operations at different processes. *)
let concurrent_bursts ~n ~rounds ~spacing ~gen () =
  List.concat
    (List.init n (fun proc ->
         List.init rounds (fun k ->
             let jitter = Rat.make proc (4 * n) in
             let at = Rat.add (Rat.mul_int spacing k) jitter in
             { proc; at; inv = gen ~proc ~k })))

(* Time ties break on process id — never on list position — so sorted
   schedules are invariant to the order a generator emitted entries
   in. *)
let sort_schedule entries =
  List.stable_sort
    (fun (a : _ entry) (b : _ entry) ->
      match Rat.compare a.at b.at with
      | 0 -> Int.compare a.proc b.proc
      | c -> c)
    entries
