(* Interval records: the monitors' view of a completed history.

   The front end in [Monitor.Make] translates each completed operation
   into a record carrying only its canonical observation
   ([Spec.Adt_view.obs]) and real-time interval.  Everything the
   per-type monitors do — necessary-pattern scans, greedy
   linearization — works on arrays of these, so the kernels stay
   generic over data types.  The certificate check that follows
   ([Monitor.Make.verify_order]) reads the operations themselves.

   Conventions shared by all kernels:
   - records are indexed by [id], their position in the checked history;
   - [precedes a b] is the Herlihy-Wing real-time order: [a] responds
     strictly before [b] is invoked;
   - kernels may assume the history is {e unambiguous} — each [Put v]
     value appears at most once — the dispatcher checks this before
     dispatching and falls back to Wing-Gong otherwise. *)

type t = {
  id : int;
  proc : int;
  obs : Spec.Adt_view.obs;
  start : Rat.t;  (** invocation time *)
  finish : Rat.t;  (** response time *)
}

let precedes a b = Rat.lt a.finish b.start

let culprit (r : t) : Violation.culprit =
  { index = r.id; proc = r.proc; obs = r.obs; start = r.start; finish = r.finish }

(* What a kernel decides.  [Order] is a candidate linearization (record
   ids, first to last) that the dispatcher re-verifies by semantic
   replay and a real-time sweep before trusting — an accept is always
   certificate-backed.  [Violation] carries a witness justified by a
   necessary condition, so it is sound on its own.  [Unknown] sends the
   history to the Wing-Gong fallback (ambiguity, an observation outside
   the kernel's vocabulary, or greedy incompleteness). *)
type outcome =
  | Order of int list
  | Violation of Violation.t
  | Unknown of string

(* The ids [i] in [0, n) for which [keep i] holds, stably sorted by
   [cmp]: ties keep ascending id order.  Every kernel sorts its records
   and value classes through this, once per key. *)
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
  Array.stable_sort cmp a;
  a

(* --- Per-value classes -------------------------------------------------

   The container kernels (queue, stack, priority queue) all start by
   grouping records by value: the unique [Put v], the unique
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
   record, and every per-class field is an int array indexed by class
   number that holds record ids ([-1]: absent).  Every class of an
   [Ok] result has a put: a value observed but never put is the
   "fresh" violation. *)

type classes = {
  records : t array;
  count : int;  (** number of value classes *)
  value : int array;
  put : int array;  (** the [Put v] *)
  take : int array;  (** the [Take (Some v)] *)
  phase_at : int array;
      (** [count + 1] offsets: class [c]'s phase is
          [phase.(phase_at.(c)) .. phase.(phase_at.(c + 1) - 1)] *)
  phase : int array;
      (** the observations of each value at the access point: its take
          first, then its peeks in record order *)
  owner : int array;  (** per record: its class, [-1] for an empty *)
  empties : int array;  (** [Take None] and [Peek None], record order *)
}

let violation ~kind ~rule culprits message =
  Violation (Violation.make ~kind ~rule ~culprits:(List.map culprit culprits) message)

module Itbl = Hashtbl.Make (Int)

(* Group records and run the per-value patterns.  [Ok classes] when no
   cheap pattern fires; kernels then continue with shape-specific
   scans.  Records with observations outside the container vocabulary
   yield [Unknown] (the dispatcher falls back).

   One pass over the records groups them and looks for the first
   duplicate insertion.  Ambiguity outranks every other flag: each
   per-value pattern assumes each value is inserted at most once, and
   under a duplicate insertion a "repeat take" or "fresh value" may
   simply be the other insertion's copy.  In record order a confounded
   pattern (two takes of [v]) can precede the second [Put v] that
   explains it, so the pass runs to the end before any flag is
   reported — flagging eagerly would turn an ambiguous history into a
   definitive, and wrong, violation. *)
let classify ~kind (records : t array) : (classes, outcome) result =
  let n = Array.length records in
  let index = Itbl.create 97 in
  let value = Array.make n 0 in
  let put = Array.make n (-1) and take = Array.make n (-1) in
  let owner = Array.make n (-1) in
  let phase_len = Array.make (n + 1) 0 in
  let count = ref 0 and n_empty = ref 0 in
  let class_of v =
    match Itbl.find index v with
    | c -> c
    | exception Not_found ->
        let c = !count in
        incr count;
        Itbl.add index v c;
        value.(c) <- v;
        c
  in
  let ambiguous = ref (-1) in
  let outcome = ref None in
  let flag o = if !outcome = None then outcome := Some o in
  for i = 0 to n - 1 do
    let r = records.(i) in
    match r.obs with
    | Spec.Adt_view.Put v ->
        let c = class_of v in
        owner.(i) <- c;
        if put.(c) < 0 then put.(c) <- i
        else if !ambiguous < 0 then ambiguous := c
    | Take (Some v) ->
        let c = class_of v in
        owner.(i) <- c;
        if take.(c) < 0 then begin
          take.(c) <- i;
          phase_len.(c) <- phase_len.(c) + 1
        end
        else
          flag
            (violation ~kind ~rule:"container.repeat" [ r; records.(take.(c)) ]
               (Printf.sprintf "value %d taken twice" v))
    | Peek (Some v) ->
        let c = class_of v in
        owner.(i) <- c;
        phase_len.(c) <- phase_len.(c) + 1
    | Take None | Peek None -> incr n_empty
    | Has _ | Drop _ | Opaque ->
        flag
          (Unknown
             (Printf.sprintf "observation %s outside container vocabulary"
                (Spec.Adt_view.obs_to_string r.obs)))
  done;
  if !ambiguous >= 0 then
    Error
      (Unknown
         (Printf.sprintf "value %d inserted twice; history is ambiguous"
            value.(!ambiguous)))
  else
    match !outcome with
    | Some o -> Error o
    | None -> (
        let count = !count in
        (* lay the phases out: offsets, then each take, then the peeks *)
        let phase_at = Array.make (count + 1) 0 in
        for c = 0 to count - 1 do
          phase_at.(c + 1) <- phase_at.(c) + phase_len.(c)
        done;
        let phase = Array.make phase_at.(count) 0 in
        let next = Array.sub phase_at 0 count in
        for c = 0 to count - 1 do
          if take.(c) >= 0 then begin
            phase.(next.(c)) <- take.(c);
            next.(c) <- next.(c) + 1
          end
        done;
        let empties = Array.make !n_empty 0 in
        let e = ref 0 in
        for i = 0 to n - 1 do
          match records.(i).obs with
          | Peek (Some _) ->
              let c = owner.(i) in
              phase.(next.(c)) <- i;
              next.(c) <- next.(c) + 1
          | Take None | Peek None ->
              empties.(!e) <- i;
              incr e
          | _ -> ()
        done;
        (* fresh / before-put / after-take, class by class: the first
           phase entry in [j, hi) responding before [x], or invoked
           after it *)
        let rec responds_before j hi x =
          if j >= hi then -1
          else if Rat.lt records.(phase.(j)).finish x then phase.(j)
          else responds_before (j + 1) hi x
        in
        let rec invoked_after j hi x =
          if j >= hi then -1
          else if Rat.lt x records.(phase.(j)).start then phase.(j)
          else invoked_after (j + 1) hi x
        in
        let fail c rule culprits what =
          Error
            (violation ~kind ~rule culprits
               (Printf.sprintf "value %d %s" value.(c) what))
        in
        let rec per_value c =
          if c = count then
            Ok
              {
                records;
                count;
                value;
                put;
                take;
                phase_at;
                phase;
                owner;
                empties;
              }
          else
            let lo = phase_at.(c) and hi = phase_at.(c + 1) in
            if put.(c) < 0 then
              fail c "container.fresh" [ records.(phase.(lo)) ]
                "observed but never inserted"
            else
              let p = records.(put.(c)) in
              let e = responds_before lo hi p.start in
              if e >= 0 then
                fail c "container.before-put" [ records.(e); p ]
                  "observed entirely before its insertion"
              else
                let t = take.(c) in
                let e =
                  if t < 0 then -1
                  else invoked_after (lo + 1) hi records.(t).finish
                in
                if e >= 0 then
                  fail c "container.after-take" [ records.(e); records.(t) ]
                    "observed entirely after its removal"
                else per_value (c + 1)
        in
        per_value 0)

(* The phase operation of class [c] that responds first (ties: earliest
   in phase order), and the one invoked last; [-1] for an empty phase. *)
let phase_first_finish cl c =
  let best = ref (-1) in
  for j = cl.phase_at.(c) to cl.phase_at.(c + 1) - 1 do
    let o = cl.phase.(j) in
    if !best < 0 || Rat.lt cl.records.(o).finish cl.records.(!best).finish
    then best := o
  done;
  !best

let phase_last_start cl c =
  let best = ref (-1) in
  for j = cl.phase_at.(c) to cl.phase_at.(c + 1) - 1 do
    let o = cl.phase.(j) in
    if !best < 0 || Rat.lt cl.records.(!best).start cl.records.(o).start then
      best := o
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
let empty_uncoverable ~kind (cl : classes) : outcome option =
  let ne = Array.length cl.empties in
  if ne = 0 then None
  else begin
    let r = cl.records and put = cl.put and take = cl.take in
    let horizon = ref r.(cl.empties.(0)).finish in
    Array.iter
      (fun e -> horizon := Rat.max !horizon r.(e).finish)
      cl.empties;
    let lo c = r.(put.(c)).finish in
    let covers =
      sorted_ids cl.count
        ~keep:(fun c -> Rat.lt (lo c) !horizon)
        (fun a b -> Rat.compare (lo a) (lo b))
    in
    let k = Array.length covers in
    (* [closes_after a b]: cover [a] stays open strictly longer *)
    let closes_after a b =
      take.(b) >= 0
      && (take.(a) < 0 || Rat.lt r.(take.(b)).start r.(take.(a)).start)
    in
    let reach = Array.copy covers in
    for j = 1 to k - 1 do
      if not (closes_after covers.(j) reach.(j - 1)) then
        reach.(j) <- reach.(j - 1)
    done;
    (* the number of covers opening strictly below [p] *)
    let opened p =
      let a = ref 0 and b = ref k in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if Rat.lt (lo covers.(mid)) p then a := mid + 1 else b := mid
      done;
      !a
    in
    (* walk [e]'s cover chain, handing each cover to [visit]; true iff
       the chain covers all of [e] *)
    let covered (e : t) visit =
      let rec go p =
        let j = opened p in
        j > 0
        &&
        let c = reach.(j - 1) in
        if take.(c) < 0 then (visit c; true)
        else
          let h = r.(take.(c)).start in
          Rat.lt p h
          && begin
               visit c;
               Rat.lt e.finish h || go h
             end
      in
      go e.start
    in
    let ignore_cover (_ : int) = () in
    let rec first i =
      if i = ne then None
      else
        let e = r.(cl.empties.(i)) in
        if not (covered e ignore_cover) then first (i + 1)
        else begin
          let chain = ref [] in
          ignore (covered e (fun c -> chain := c :: !chain));
          let culprits =
            e
            :: List.concat_map
                 (fun c ->
                   if take.(c) < 0 then [ r.(put.(c)) ]
                   else [ r.(put.(c)); r.(take.(c)) ])
                 (List.rev !chain)
          in
          Some
            (violation ~kind ~rule:"container.nonempty" culprits
               "empty observation while some value is provably present")
        end
    in
    first 0
  end
