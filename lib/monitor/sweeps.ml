(* The container kernel's O(n log n) sweeps: its order patterns and
   the insertion order of its certificate.

   Both pattern sweeps look for the same shape of necessary violation:
   an operation observes value [x] at the container's access point
   (head, top, or max) although some other value is {e forced} to be
   ahead of it there — inserted early enough that every linearization
   places it in the container before the observation, and removed too
   late (or never) for any linearization to have gotten it out of the
   way.

   - [queue_fifo] (HSV VOrd aspect): value [u] forced enqueued before
     [v] (finish of enq u < start of enq v) must be dequeued before any
     observation of [v] at the head.
   - [forced_above] (shared by stack and priority queue): candidates
     keyed by a rational — start of the push for LIFO ("pushed later"),
     the priority itself for the priority queue ("bigger") — absorbed in
     response-of-insert order and queried by a Fenwick tree holding the
     latest forced removal per key suffix.

   Values are the class numbers of {!Record.classes} and operations
   their positions; every ordering is one stable sort of an index
   array. *)

(* The classes, stably sorted by the response of their put. *)
let by_put_finish (cl : Record.classes) =
  let finish = cl.view.finish and put = cl.put in
  Record.sorted_ids cl.count (fun a b ->
      Rat.compare finish.(put.(a)) finish.(put.(b)))

(* --- queue: FIFO order -------------------------------------------- *)

(* Values with head evidence (the earliest-responding take or peek
   returning them), iterated by start of their put; candidates absorbed
   once their put's finish drops below that start.  One running "first
   untaken" plus a running max of take starts decides both branches of
   the pattern. *)
let queue_fifo ~kind (cl : Record.classes) : Record.outcome option =
  let v = cl.view and put = cl.put and take = cl.take in
  let start = v.start and finish = v.finish in
  let evidence = Array.make cl.count (-1) in
  for c = 0 to cl.count - 1 do
    evidence.(c) <- Record.phase_first_finish cl c
  done;
  let observed =
    Record.sorted_ids cl.count
      ~keep:(fun c -> evidence.(c) >= 0)
      (fun a b -> Rat.compare start.(put.(a)) start.(put.(b)))
  in
  let candidates = by_put_finish cl in
  let nc = Array.length candidates in
  let i = ref 0 in
  let untaken = ref (-1) in
  let latest = ref (-1) in
  (* the absorbed taken candidate whose take starts last *)
  let found = ref None in
  let k = ref 0 in
  while Option.is_none !found && !k < Array.length observed do
    let c = observed.(!k) in
    let o = evidence.(c) in
    let s_put = start.(put.(c)) in
    while !i < nc && Rat.lt finish.(put.(candidates.(!i))) s_put do
      let u = candidates.(!i) in
      (if take.(u) < 0 then (if !untaken < 0 then untaken := u)
       else if
         !latest < 0 || Rat.lt start.(take.(!latest)) start.(take.(u))
       then latest := u);
      incr i
    done;
    (if !untaken >= 0 then
       let u = !untaken in
       found :=
         Some
           (Record.violation ~kind ~rule:"queue.fifo-order" v
              [ o; put.(c); put.(u) ]
              (Printf.sprintf
                 "value %d observed at the head but value %d is forced ahead \
                  of it and never taken"
                 cl.value.(c) cl.value.(u)))
     else if !latest >= 0 && Rat.lt finish.(o) start.(take.(!latest)) then
       let u = !latest in
       found :=
         Some
           (Record.violation ~kind ~rule:"queue.fifo-order" v
              [ o; put.(c); put.(u); take.(u) ]
              (Printf.sprintf
                 "value %d observed at the head before value %d, forced ahead \
                  of it, could be taken"
                 cl.value.(c) cl.value.(u))));
    incr k
  done;
  !found

(* --- stack / priority queue: forced-above ------------------------- *)

(* [better take start a b]: of two candidate classes, the one that
   provably stays longer, [a] on ties; [b < 0] is no class. *)
let better (take : int array) (start : Rat.t array) a b =
  if b < 0 || take.(a) < 0 then a
  else if take.(b) < 0 then b
  else if Rat.le start.(take.(b)) start.(take.(a)) then a
  else b

(* [forced_above ~kind ~rule ~describe ~key ~threshold cl]: for each
   take or peek observation [o] of class [c], a violation exists iff
   some candidate [v] with [finish (put v) < start o] and
   [key cl v > threshold cl c] is forced present at [o]'s
   linearization point (never taken, or its take starts after [o]
   finishes).  [describe x y] words a hit of value [x] under [y].

   The candidates live in a max-Fenwick tree over dense key ranks,
   stored reversed so that a key suffix is a prefix; each cell holds
   the class that stays longest (never taken beats any take start). *)
let forced_above ~kind ~rule ~describe ~key ~threshold (cl : Record.classes) :
    Record.outcome option =
  let v = cl.view and put = cl.put and take = cl.take in
  let start = v.start and finish = v.finish in
  let evidence =
    Record.sorted_ids (Array.length cl.phase) (fun a b ->
        Rat.compare start.(cl.phase.(a)) start.(cl.phase.(b)))
  in
  (* dense ranks, 1-based: equal keys share a rank, and [reps.(q - 1)]
     is one class of rank [q] *)
  let by_key =
    Record.sorted_ids cl.count (fun a b ->
        Rat.compare (key cl a) (key cl b))
  in
  let rank = Array.make cl.count 0 in
  let reps = Array.make (Array.length by_key) 0 in
  let m = ref 0 in
  for j = 0 to Array.length by_key - 1 do
    let c = by_key.(j) in
    if !m = 0 || not (Rat.equal (key cl c) (key cl reps.(!m - 1))) then begin
      reps.(!m) <- c;
      incr m
    end;
    rank.(c) <- !m
  done;
  let m = !m in
  let cells = Array.make (m + 1) (-1) in
  let candidates = by_put_finish cl in
  let nc = Array.length candidates in
  let i = ref 0 in
  let found = ref None in
  let k = ref 0 in
  while Option.is_none !found && !k < Array.length evidence do
    let o = cl.phase.(evidence.(!k)) in
    let c = cl.owner.(o) in
    while !i < nc && Rat.lt finish.(put.(candidates.(!i))) start.(o) do
      let u = candidates.(!i) in
      (* absorb [u] into every cell covering its rank's suffix *)
      let j = ref (m - rank.(u) + 1) in
      while !j <= m do
        cells.(!j) <- better take start u cells.(!j);
        j := !j + (!j land - !j)
      done;
      incr i
    done;
    (* the least rank with key strictly above [threshold cl c] *)
    let t = threshold cl c in
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Rat.le (key cl reps.(mid)) t then lo := mid + 1 else hi := mid
    done;
    let q = !lo + 1 in
    (* the longest-staying candidate of rank [q] or above *)
    let u = ref (-1) in
    if q <= m then begin
      let j = ref (m - q + 1) in
      while !j > 0 do
        if cells.(!j) >= 0 then u := better take start cells.(!j) !u;
        j := !j - (!j land - !j)
      done
    end;
    let u = !u in
    (if u < 0 || u = c then ()
     else if take.(u) < 0 then
       found :=
         Some
           (Record.violation ~kind ~rule v
              [ o; put.(c); put.(u) ]
              (describe cl.value.(c) cl.value.(u) ^ " and never taken"))
     else if Rat.lt finish.(o) start.(take.(u)) then
       found :=
         Some
           (Record.violation ~kind ~rule v
              [ o; put.(c); put.(u); take.(u) ]
              (describe cl.value.(c) cl.value.(u)
              ^ " until after the observation")));
    incr k
  done;
  !found

(* --- value insertion order ---------------------------------------- *)

(* A linear extension of every precedence real time forces on the
   insertion sequence:
   - put(u) entirely before put(v): u inserted first;
   - u's whole phase entirely before put(v): u was inserted, observed
     and removed before v existed;
   - (queue only) u's phase entirely before v's phase: the head reigns
     happen in insertion order, so the phase intervals are a second
     interval order over the values;
   - (stack only) the LIFO residency edges below.
   Among the orders these allow, each shape prefers its own: the queue
   takes in insertion order, with peeked but never taken values near
   the end and never observed ones last; the stack and the priority
   queue prefer put-finish order, the best guess at the real put order
   — for the stack the residency edges pin every observably forced
   depth relation, and for the priority queue the insertion order is
   semantically free (the container sorts by value), so a late-pushed
   maximum must not shadow earlier observations.
   Returns the classes in insertion order. *)
let value_order ~kind (cl : Record.classes) : int array option =
  let start = cl.view.start and finish = cl.view.finish in
  let put = cl.put and take = cl.take in
  let m = cl.count in
  let fp = Array.init m (Record.phase_first_finish cl) in
  let put_order = { Extension.f = put; s = put } in
  let gone_before_put = { Extension.f = fp; s = put } in
  (* LIFO residency edges: an observation of [w] forced to happen while
     [u] is provably in the container (put finished before the
     observation starts, take starts after it finishes) pins [u] below
     [w], hence inserted first.  This conjunction fits no single
     interval-order relation.  Pairs already ordered by [put_order] are
     skipped, so only values with overlapping puts are scanned — the
     candidate range is bounded by the history's concurrency width. *)
  let residency_edges () =
    let fe i = finish.(put.(i)) in
    let by_fe = Record.sorted_ids m (fun i j -> Rat.compare (fe i) (fe j)) in
    (* first position in [by_fe] with fe >= x *)
    let lower x =
      let lo = ref 0 and hi = ref m in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Rat.lt (fe by_fe.(mid)) x then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let edges = Extension.Edges.create () in
    for w = 0 to m - 1 do
      for j = cl.phase_at.(w) to cl.phase_at.(w + 1) - 1 do
        let o = cl.phase.(j) in
        for k = lower start.(put.(w)) to lower start.(o) - 1 do
          let u = by_fe.(k) in
          if
            u <> w
            && Rat.lt (fe u) start.(o)
            && (take.(u) < 0 || Rat.lt finish.(o) start.(take.(u)))
          then Extension.Edges.add edges u w
        done
      done
    done;
    edges
  in
  let finish_of ids i j = Rat.compare finish.(ids.(i)) finish.(ids.(j)) in
  let relations, prefer =
    match kind with
    | Spec.Adt_view.Queue ->
        let phase_order =
          { Extension.f = fp; s = Array.init m (Record.phase_last_start cl) }
        in
        (* takes run in insertion order; peeked but never taken values
           go near the end, never observed ones last *)
        let tier = Array.make m 0 and key = Array.copy put in
        for i = 0 to m - 1 do
          if take.(i) >= 0 then key.(i) <- take.(i)
          else if fp.(i) >= 0 then begin
            tier.(i) <- 1;
            key.(i) <- fp.(i)
          end
          else tier.(i) <- 2
        done;
        ( [ put_order; phase_order; gone_before_put ],
          fun i j ->
            match Int.compare tier.(i) tier.(j) with
            | 0 -> finish_of key i j
            | c -> c )
    | _ -> ([ put_order; gone_before_put ], finish_of put)
  in
  let edges =
    match kind with
    | Spec.Adt_view.Stack -> residency_edges ()
    | _ -> Extension.Edges.create ()
  in
  Extension.solve cl.view ~m ~relations ~edges prefer
