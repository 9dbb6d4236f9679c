(* The monitors' view of a completed history: columns, not records.

   The front end in [Monitor.Make] reads each completed operation once
   and writes it into a columnar {!view}: a tag byte and an int for its
   canonical observation ([Spec.Adt_view.obs]), and its invocation and
   response times in two arrays that hold the operation's own [Rat.t]
   values (aliased, not copied).  Everything the per-type monitors do —
   necessary-pattern scans, greedy linearization — reads these columns,
   so the kernels stay generic over data types and build no heap block
   per operation.  The invoking process is not a column: it is read
   through [proc] only when a violation names a culprit.  The
   certificate check that follows ([Monitor.Make.verify_order]) reads
   the operations themselves.

   Conventions shared by all kernels:
   - operations are named by their position in the checked history;
   - an accepted history's certificate is one [int array] of positions,
     first to last, which the dispatcher verifies and reports as is;
   - [a] precedes [b] in the Herlihy-Wing real-time order when [a]
     responds strictly before [b] is invoked, which the kernels read
     off the time columns;
   - kernels may assume the history is {e unambiguous} — each [Put v]
     value appears at most once — the dispatcher checks this before
     dispatching and falls back to Wing-Gong otherwise.

   [t] is one operation as a record.  It survives only as the input of
   the adapter {!of_records}, for callers that still build records. *)

(* Observation tags, one byte per operation. *)
module Tag = struct
  type t =
    | Put
    | Take  (** [Take (Some v)] *)
    | Take_empty
    | Peek  (** [Peek (Some v)] *)
    | Peek_empty
    | Has_true
    | Has_false
    | Drop
    | Opaque

  let to_char = function
    | Put -> '\000'
    | Take -> '\001'
    | Take_empty -> '\002'
    | Peek -> '\003'
    | Peek_empty -> '\004'
    | Has_true -> '\005'
    | Has_false -> '\006'
    | Drop -> '\007'
    | Opaque -> '\008'

  let of_char = function
    | '\000' -> Put
    | '\001' -> Take
    | '\002' -> Take_empty
    | '\003' -> Peek
    | '\004' -> Peek_empty
    | '\005' -> Has_true
    | '\006' -> Has_false
    | '\007' -> Drop
    | _ -> Opaque
end

type view = {
  n : int;  (** operations *)
  tags : Bytes.t;  (** per operation: its observation's {!Tag.t} *)
  value : int array;  (** per operation: the value observed; [0] if none *)
  start : Rat.t array;  (** per operation: invocation time *)
  finish : Rat.t array;  (** per operation: response time *)
  proc : int -> int;  (** the invoking process; read only for culprits *)
}

let tag (v : view) i = Tag.of_char (Bytes.get v.tags i)

(* Store observation [o] as operation [i]'s tag and value. *)
let set_obs tags values i (o : Spec.Adt_view.obs) =
  let t, x =
    match o with
    | Put x -> (Tag.Put, x)
    | Take (Some x) -> (Tag.Take, x)
    | Take None -> (Tag.Take_empty, 0)
    | Peek (Some x) -> (Tag.Peek, x)
    | Peek None -> (Tag.Peek_empty, 0)
    | Has (x, true) -> (Tag.Has_true, x)
    | Has (x, false) -> (Tag.Has_false, x)
    | Drop x -> (Tag.Drop, x)
    | Opaque -> (Tag.Opaque, 0)
  in
  Bytes.set tags i (Tag.to_char t);
  values.(i) <- x

(* Operation [i]'s observation, rebuilt from its columns. *)
let obs (v : view) i : Spec.Adt_view.obs =
  let x = v.value.(i) in
  match tag v i with
  | Tag.Put -> Put x
  | Tag.Take -> Take (Some x)
  | Tag.Take_empty -> Take None
  | Tag.Peek -> Peek (Some x)
  | Tag.Peek_empty -> Peek None
  | Tag.Has_true -> Has (x, true)
  | Tag.Has_false -> Has (x, false)
  | Tag.Drop -> Drop x
  | Tag.Opaque -> Opaque

(* The view of [n] operations: [observe i] is operation [i]'s
   observation, read once, and the time columns are the caller's
   arrays of the operations' own times. *)
let make_view ~n ~observe ~start ~finish ~proc =
  let tags = Bytes.create n and value = Array.make n 0 in
  for i = 0 to n - 1 do
    set_obs tags value i (observe i)
  done;
  { n; tags; value; start; finish; proc }

let culprit (v : view) i : Violation.culprit =
  {
    index = i;
    proc = v.proc i;
    obs = obs v i;
    start = v.start.(i);
    finish = v.finish.(i);
  }

type t = {
  id : int;  (** position in the checked history *)
  proc : int;
  obs : Spec.Adt_view.obs;
  start : Rat.t;  (** invocation time *)
  finish : Rat.t;  (** response time *)
}

(* The columns of a record array whose ids are its positions. *)
let of_records (records : t array) : view =
  make_view ~n:(Array.length records)
    ~observe:(fun i -> records.(i).obs)
    ~start:(Array.map (fun r -> r.start) records)
    ~finish:(Array.map (fun r -> r.finish) records)
    ~proc:(fun i -> records.(i).proc)

(* What a kernel decides.  [Order] is a candidate linearization
   (positions, first to last) that the dispatcher re-verifies by
   semantic replay and a real-time sweep before trusting — an accept is
   always certificate-backed.  [Violation] carries a witness justified
   by a necessary condition, so it is sound on its own.  [Unknown]
   sends the history on to the protocol's order or Wing-Gong
   (ambiguity, an observation outside the kernel's vocabulary, or
   greedy incompleteness), with the reason rendered only when it is
   read: most fallbacks are never explained. *)
type outcome =
  | Order of int array
  | Violation of Violation.t
  | Unknown of string Lazy.t

(* Flags, one byte each rather than a word. *)
module Flags = struct
  let make n b = Bytes.make n (if b then '\001' else '\000')
  let get f i = Bytes.get f i <> '\000'
  let set f i = Bytes.set f i '\001'
  let clear f i = Bytes.set f i '\000'
end

(* Merge [src.(lo .. mid - 1)] and [src.(mid .. hi - 1)], each sorted,
   into [dst.(lo .. hi - 1)]; on a tie the left run goes first. *)
let merge cmp (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let x = src.(!i) and y = src.(!j) in
    if cmp y x < 0 then begin
      dst.(!k) <- y;
      incr j
    end
    else begin
      dst.(!k) <- x;
      incr i
    end;
    incr k
  done;
  Array.blit src !i dst !k (mid - !i);
  Array.blit src !j dst (!k + mid - !i) (hi - !j)

(* Sort [a] in place, stably: insertion-sorted runs of 8, then
   bottom-up merges between [a] and one scratch array.  Unlike
   [Array.stable_sort], which builds a closure per merge, it allocates
   nothing but the scratch array, whatever the length. *)
let stable_sort_ints cmp (a : int array) =
  let n = Array.length a in
  let run = 8 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && cmp a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    lo := hi
  done;
  if n > run then begin
    let src = ref a and dst = ref (Array.make n 0) in
    let width = ref run in
    while !width < n do
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        let hi = min n (mid + !width) in
        merge cmp !src !dst !lo mid hi;
        lo := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* The ids [i] in [0, n) for which [keep i] holds, stably sorted by
   [cmp]: ties keep ascending id order.  Every kernel sorts its
   operations and value classes through this, once per key. *)
let sorted_ids ?(keep = fun _ -> true) n cmp =
  let k = ref 0 in
  for i = 0 to n - 1 do
    if keep i then incr k
  done;
  let a = Array.make !k 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      a.(!j) <- i;
      incr j
    end
  done;
  stable_sort_ints cmp a;
  a

(* Value classes without a hash table: one stable sort of the kept
   operations by value puts each value's operations in one run, in
   position order, so the run's head is the value's first operation.
   One pass in position order then numbers the classes by first
   operation.  Returns the number of classes and, per operation, its
   class ([-1]: not kept). *)
let value_classes (v : view) ~keep =
  let ids =
    sorted_ids v.n ~keep (fun a b -> Int.compare v.value.(a) v.value.(b))
  in
  let cls = Array.make v.n (-1) in
  (* per kept operation, first the head of its run ... *)
  let k = Array.length ids in
  let j = ref 0 in
  while !j < k do
    let head = ids.(!j) in
    let x = v.value.(head) in
    while !j < k && v.value.(ids.(!j)) = x do
      cls.(ids.(!j)) <- head;
      incr j
    done
  done;
  (* ... then, in position order, its class: a head opens a new one,
     every other operation joins its head's, numbered already *)
  let count = ref 0 in
  for i = 0 to v.n - 1 do
    let h = cls.(i) in
    if h = i then begin
      cls.(i) <- !count;
      incr count
    end
    else if h >= 0 then cls.(i) <- cls.(h)
  done;
  (!count, cls)

(* --- Per-value classes -------------------------------------------------

   The container kernel (queue, stack, priority queue) starts by
   grouping operations by value: the unique [Put v], the unique
   [Take (Some v)], and the [Peek (Some v)] observations, plus the
   shared pool of empty observations ([Take None] / [Peek None]).
   Building the classes also performs the cheap per-value necessary
   patterns common to every container:

   - take/peek of a value never put      ("fresh")
   - two takes of the same value         ("repeat")
   - take/peek entirely before the put   ("before-put")
   - peek entirely after the take        ("after-take")

   Each is a necessary condition for {e any} container in which [Put]
   inserts a fresh value, [Take] removes it, and [Peek] observes it
   without removing — so a hit is a sound violation for queue, stack,
   and priority queue alike.

   Classes are numbered [0, count) in order of their value's first
   operation, and every per-class field is an int array indexed by
   class number that holds positions ([-1]: absent).  Every class of an
   [Ok] result has a put: a value observed but never put is the
   "fresh" violation. *)

type classes = {
  view : view;
  count : int;  (** number of value classes *)
  value : int array;
  put : int array;  (** the [Put v] *)
  take : int array;  (** the [Take (Some v)] *)
  phase_at : int array;
      (** [count + 1] offsets: class [c]'s phase is
          [phase.(phase_at.(c)) .. phase.(phase_at.(c + 1) - 1)] *)
  phase : int array;
      (** the observations of each value at the access point: its take
          first, then its peeks in position order *)
  owner : int array;  (** per operation: its class, [-1] for an empty *)
  empties : int array;  (** [Take None] and [Peek None], position order *)
}

let violation ~kind ~rule (v : view) culprits message =
  Violation
    (Violation.make ~kind ~rule
       ~culprits:(List.map (culprit v) culprits)
       message)

(* The operations the container classes group: puts, takes and peeks
   of a value. *)
let valued (v : view) i =
  match tag v i with Tag.Put | Tag.Take | Tag.Peek -> true | _ -> false

(* The first phase entry in [j, hi) responding before [x], or invoked
   after it; [-1] if none. *)
let rec responds_before finish phase j hi x =
  if j >= hi then -1
  else if Rat.lt finish.(phase.(j)) x then phase.(j)
  else responds_before finish phase (j + 1) hi x

let rec invoked_after start phase j hi x =
  if j >= hi then -1
  else if Rat.lt x start.(phase.(j)) then phase.(j)
  else invoked_after start phase (j + 1) hi x

(* A per-value pattern's hit on class [c], whose value is [value.(c)]. *)
let value_violation ~kind v value c rule culprits what =
  violation ~kind ~rule v culprits (Printf.sprintf "value %d %s" value.(c) what)

(* Group operations and run the per-value patterns.  [Ok classes] when
   no cheap pattern fires; the container kernel then continues with its
   shape's scans.  Operations with observations outside the container
   vocabulary yield [Unknown] (the dispatcher falls back).

   One pass over the operations groups them and looks for the first
   duplicate insertion.  Ambiguity outranks every other flag: each
   per-value pattern assumes each value is inserted at most once, and
   under a duplicate insertion a "repeat take" or "fresh value" may
   simply be the other insertion's copy.  In position order a
   confounded pattern (two takes of [v]) can precede the second
   [Put v] that explains it, so the pass runs to the end before any
   flag is reported — flagging eagerly would turn an ambiguous history
   into a definitive, and wrong, violation. *)
let classify ~kind (v : view) : (classes, outcome) result =
  let n = v.n in
  let count, owner = value_classes v ~keep:(valued v) in
  let value = Array.make count 0 in
  let put = Array.make count (-1) and take = Array.make count (-1) in
  let phase_len = Array.make (count + 1) 0 in
  let n_empty = ref 0 in
  let ambiguous = ref (-1) in
  let outcome = ref None in
  for i = 0 to n - 1 do
    let c = owner.(i) in
    if c >= 0 then value.(c) <- v.value.(i);
    match tag v i with
    | Tag.Put ->
        if put.(c) < 0 then put.(c) <- i
        else if !ambiguous < 0 then ambiguous := c
    | Tag.Take ->
        if take.(c) < 0 then begin
          take.(c) <- i;
          phase_len.(c) <- phase_len.(c) + 1
        end
        else if Option.is_none !outcome then
          outcome :=
            Some
              (violation ~kind ~rule:"container.repeat" v [ i; take.(c) ]
                 (Printf.sprintf "value %d taken twice" v.value.(i)))
    | Tag.Peek -> phase_len.(c) <- phase_len.(c) + 1
    | Tag.Take_empty | Tag.Peek_empty -> incr n_empty
    | Tag.Has_true | Tag.Has_false | Tag.Drop | Tag.Opaque ->
        if Option.is_none !outcome then
          outcome :=
            Some
              (Unknown
                 (lazy
                   (Printf.sprintf "observation %s outside container vocabulary"
                      (Spec.Adt_view.obs_to_string (obs v i)))))
  done;
  if !ambiguous >= 0 then
    let x = value.(!ambiguous) in
    Error
      (Unknown
         (lazy
           (Printf.sprintf "value %d inserted twice; history is ambiguous" x)))
  else
    match !outcome with
    | Some o -> Error o
    | None ->
        (* lay the phases out: offsets, then each take, then the peeks *)
        let phase_at = Array.make (count + 1) 0 in
        for c = 0 to count - 1 do
          phase_at.(c + 1) <- phase_at.(c) + phase_len.(c)
        done;
        let phase = Array.make phase_at.(count) 0 in
        let next = phase_len in
        for c = 0 to count - 1 do
          next.(c) <- phase_at.(c);
          if take.(c) >= 0 then begin
            phase.(next.(c)) <- take.(c);
            next.(c) <- next.(c) + 1
          end
        done;
        let empties = Array.make !n_empty 0 in
        let e = ref 0 in
        for i = 0 to n - 1 do
          match tag v i with
          | Tag.Peek ->
              let c = owner.(i) in
              phase.(next.(c)) <- i;
              next.(c) <- next.(c) + 1
          | Tag.Take_empty | Tag.Peek_empty ->
              empties.(!e) <- i;
              incr e
          | _ -> ()
        done;
        (* fresh / before-put / after-take, class by class *)
        let found = ref None in
        let c = ref 0 in
        while Option.is_none !found && !c < count do
          let lo = phase_at.(!c) and hi = phase_at.(!c + 1) in
          (if put.(!c) < 0 then
             found :=
               Some
                 (value_violation ~kind v value !c "container.fresh"
                    [ phase.(lo) ] "observed but never inserted")
           else
             let p = put.(!c) in
             let e = responds_before v.finish phase lo hi v.start.(p) in
             if e >= 0 then
               found :=
                 Some
                   (value_violation ~kind v value !c "container.before-put"
                      [ e; p ] "observed entirely before its insertion")
             else
               let t = take.(!c) in
               let e =
                 if t < 0 then -1
                 else invoked_after v.start phase (lo + 1) hi v.finish.(t)
               in
               if e >= 0 then
                 found :=
                   Some
                     (value_violation ~kind v value !c "container.after-take"
                        [ e; t ] "observed entirely after its removal"));
          incr c
        done;
        match !found with
        | Some o -> Error o
        | None ->
            Ok
              {
                view = v;
                count;
                value;
                put;
                take;
                phase_at;
                phase;
                owner;
                empties;
              }

(* The phase operation of class [c] that responds first (ties: earliest
   in phase order), and the one invoked last; [-1] for an empty phase. *)
let phase_first_finish cl c =
  let f = cl.view.finish in
  let best = ref (-1) in
  for j = cl.phase_at.(c) to cl.phase_at.(c + 1) - 1 do
    let o = cl.phase.(j) in
    if !best < 0 || Rat.lt f.(o) f.(!best) then best := o
  done;
  !best

let phase_last_start cl c =
  let s = cl.view.start in
  let best = ref (-1) in
  for j = cl.phase_at.(c) to cl.phase_at.(c + 1) - 1 do
    let o = cl.phase.(j) in
    if !best < 0 || Rat.lt s.(!best) s.(o) then best := o
  done;
  !best

(* --- Empty-observation coverage ---------------------------------------

   A [Take None] / [Peek None] at interval [s, f] is impossible iff
   every point of [s, f] is covered by some value that is {e forced}
   present there: inserted with response before the point and removed
   (if ever) with invocation after it.  Each such value contributes the
   open interval (finish of put, start of take) — or (finish of put,
   +inf) when never taken.  The observation is a violation iff the
   open-interval union covers the whole closed [s, f] (HSV-style VWit
   aspect, generalized to any container whose emptiness is "no value
   present").

   The covers are sorted by opening time once, with a prefix array of
   the cover that closes last among the first [k].  The leftmost point
   [p] of [s, f] not yet shown covered starts at [s]; the covers
   opening strictly below [p] extend coverage to the furthest close
   among them, found by one binary search.  Each step lands on a new
   cover closing inside [s, f], so an observation costs
   O((1 + chain) log V), and the chain's covers are exactly the values
   that cover it.  Covers opening after the last empty observation
   finishes can never be absorbed and are dropped before sorting. *)
(* The number of [covers] (sorted by opening time) opening strictly
   below [p]. *)
let opened (cl : classes) covers p =
  let finish = cl.view.finish and put = cl.put in
  let a = ref 0 and b = ref (Array.length covers) in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if Rat.lt finish.(put.(covers.(mid))) p then a := mid + 1 else b := mid
  done;
  !a

(* Walk empty observation [e]'s cover chain from point [p]: true iff
   the chain covers all of [e].  With [Some chain], every cover the
   walk visits is consed onto [chain]. *)
let rec chain_covers (cl : classes) covers reach e p chain =
  let visit c = match chain with Some l -> l := c :: !l | None -> () in
  let j = opened cl covers p in
  j > 0
  &&
  let c = reach.(j - 1) in
  let t = cl.take.(c) in
  if t < 0 then begin
    visit c;
    true
  end
  else
    let h = cl.view.start.(t) in
    Rat.lt p h
    && begin
         visit c;
         Rat.lt cl.view.finish.(e) h || chain_covers cl covers reach e h chain
       end

let empty_uncoverable ~kind (cl : classes) : outcome option =
  let ne = Array.length cl.empties in
  if ne = 0 then None
  else begin
    let v = cl.view and put = cl.put and take = cl.take in
    let start = v.start and finish = v.finish in
    let horizon = ref finish.(cl.empties.(0)) in
    for i = 1 to ne - 1 do
      horizon := Rat.max !horizon finish.(cl.empties.(i))
    done;
    let horizon = !horizon in
    let covers =
      sorted_ids cl.count
        ~keep:(fun c -> Rat.lt finish.(put.(c)) horizon)
        (fun a b -> Rat.compare finish.(put.(a)) finish.(put.(b)))
    in
    (* [closes_after a b]: cover [a] stays open strictly longer *)
    let closes_after a b =
      take.(b) >= 0
      && (take.(a) < 0 || Rat.lt start.(take.(b)) start.(take.(a)))
    in
    let reach = Array.copy covers in
    for j = 1 to Array.length covers - 1 do
      if not (closes_after covers.(j) reach.(j - 1)) then
        reach.(j) <- reach.(j - 1)
    done;
    let i = ref 0 in
    while
      !i < ne
      &&
      let e = cl.empties.(!i) in
      not (chain_covers cl covers reach e start.(e) None)
    do
      incr i
    done;
    if !i = ne then None
    else begin
      let e = cl.empties.(!i) in
      let chain = ref [] in
      ignore (chain_covers cl covers reach e start.(e) (Some chain));
      let culprits =
        e
        :: List.concat_map
             (fun c ->
               if take.(c) < 0 then [ put.(c) ] else [ put.(c); take.(c) ])
             (List.rev !chain)
      in
      Some
        (violation ~kind ~rule:"container.nonempty" v culprits
           "empty observation while some value is provably present")
    end
  end
