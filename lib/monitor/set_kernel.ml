(* Set monitor: values are mutually independent, so the history
   decomposes per value — each value sees at most one [Put] (add), at
   most one [Drop] (remove; more than one falls back, unless the value
   is never added, when every remove is a no-op), and any number of
   [Has] membership tests.

   Necessary patterns per value:
   - [set.fresh]       membership true although the value was never added;
   - [set.before-add]  membership true entirely before the add;
   - [set.after-drop]  membership true although the remove is forced
                       between the add and the test;
   - [set.false-read]  membership false although the add is forced
                       before the test and the remove (if any) after it.

   Certificate: per value, place the add as early and the (active)
   remove as late as their intervals allow, route each membership test
   to the matching side, and give every operation a virtual
   linearization point inside its own interval.  Sorting all
   operations of all values by these points yields a global order that
   respects real time whenever the points do — the dispatcher's replay
   and sweep confirm it.  Any per-value infeasibility returns [Unknown]
   and the history goes to Wing-Gong.

   Values are grouped into classes by one sort ({!Record.value_classes})
   and the operations laid out by one more, stably by class and then
   by kind — add, removes, true tests, false tests — so each value's
   operations of one kind are one run in position order.  Values are
   visited in class order (first appearance); within a value the
   patterns are checked before feasibility, and the first value that
   flags anything decides. *)

module V = Spec.Adt_view
module Tag = Record.Tag

let kind = V.Set

(* The order of a value's operations in its run; [-1]: not a set
   operation. *)
let rank (v : Record.view) i =
  match Record.tag v i with
  | Tag.Put -> 0
  | Tag.Drop -> 1
  | Tag.Has_true -> 2
  | Tag.Has_false -> 3
  | _ -> -1

(* Past the operations of class [c] in [ops] from [j] on whose rank is
   at most [r]. *)
let rec upto (v : Record.view) cls ops c r j =
  if j < Array.length ops && cls.(ops.(j)) = c && rank v ops.(j) <= r then
    upto v cls ops c r (j + 1)
  else j

(* The first operation in [ops.(j .. hi - 1)] for which [p] holds;
   [-1] if none. *)
let rec find ops p j hi =
  if j >= hi then -1 else if p ops.(j) then ops.(j) else find ops p (j + 1) hi

let infeasible x msg =
  Some (Record.Unknown (lazy (Printf.sprintf "set value %d: %s" x msg)))

let check (v : Record.view) : Record.outcome =
  let n = v.n in
  let start i = v.start.(i) and finish i = v.finish.(i) in
  let count, cls = Record.value_classes v ~keep:(fun i -> rank v i >= 0) in
  (* one pass in position order: the first operation outside the
     vocabulary, or the first second add, outranks every pattern *)
  let added = Record.Flags.make count false in
  let rec vocabulary i =
    if i = n then None
    else
      match rank v i with
      | -1 ->
          Some
            (Record.Unknown
               (lazy
                 (Printf.sprintf "observation %s outside set vocabulary"
                    (V.obs_to_string (Record.obs v i)))))
      | 0 when Record.Flags.get added cls.(i) ->
          let x = v.value.(i) in
          Some
            (Record.Unknown
               (lazy (Printf.sprintf "value %d added twice; ambiguous" x)))
      | 0 ->
          Record.Flags.set added cls.(i);
          vocabulary (i + 1)
      | _ -> vocabulary (i + 1)
  in
  match vocabulary 0 with
  | Some o -> o
  | None ->
      let ops =
        Record.sorted_ids n ~keep:(fun i -> cls.(i) >= 0) (fun a b ->
            match Int.compare cls.(a) cls.(b) with
            | 0 -> Int.compare (rank v a) (rank v b)
            | c -> c)
      in
      let len = Array.length ops in
      (* Virtual linearization points, per operation: primary key the
         rational point, [seq] breaks exact ties in per-value semantic
         order (false-before / inactive drop, add, true tests, active
         drop, false-after), and position breaks the rest. *)
      let point = Array.make n Rat.zero and seq = Array.make n 0 in
      let emit key s r =
        point.(r) <- key;
        seq.(r) <- s
      in
      (* The value being solved: its add, its remove ([-1]: none), and
         whether the certificate places that remove after the add.  The
         tests read them, so they are built once, not per value. *)
      let add = ref 0 and drop = ref (-1) and active = ref false in
      let before_add t = Rat.lt (finish t) (start !add) in
      let bad_yes t =
        before_add t
        || !drop >= 0
           && Rat.lt (finish !add) (start !drop)
           && Rat.lt (finish !drop) (start t)
      in
      let bad_no f =
        Rat.lt (finish !add) (start f)
        && (!drop < 0 || Rat.lt (finish f) (start !drop))
      in
      (* with no pattern hit, the tests the certificate cannot place:
         a true test after the active remove, a false test after the
         add and not after that remove *)
      let yes_outside t = !active && Rat.lt (finish !drop) (start t) in
      let no_inside f =
        Rat.lt (start !add) (start f)
        && not (!active && Rat.le (finish !drop) (finish f))
      in
      (* One value: its add is [ops.(lo .. drops - 1)], its removes
         [ops.(drops .. yes - 1)], its true tests [ops.(yes .. no - 1)]
         and its false tests [ops.(no .. hi - 1)].  [Some] outcome when
         it flags. *)
      let solve lo drops yes no hi =
        let x = v.value.(ops.(lo)) in
        if drops = lo then
          if no > yes then
            Some
              (Record.violation ~kind ~rule:"set.fresh" v [ ops.(yes) ]
                 (Printf.sprintf
                    "membership of %d observed but value never added" x))
          else begin
            (* never added: membership reads false, removes are
               no-ops *)
            for k = drops to yes - 1 do
              emit (start ops.(k)) 0 ops.(k)
            done;
            for k = no to hi - 1 do
              emit (start ops.(k)) 0 ops.(k)
            done;
            None
          end
        else if yes - drops > 1 then
          Some
            (Record.Unknown
               (lazy (Printf.sprintf "value %d removed twice; ambiguous" x)))
        else begin
          add := ops.(lo);
          drop := if yes > drops then ops.(drops) else -1;
          (* necessary patterns first *)
          let t = find ops bad_yes yes no in
          let f = if t >= 0 then -1 else find ops bad_no no hi in
          if t >= 0 then
            Some
              (if before_add t then
                 Record.violation ~kind ~rule:"set.before-add" v [ t; !add ]
                   (Printf.sprintf
                      "membership of %d observed entirely before its add" x)
               else
                 Record.violation ~kind ~rule:"set.after-drop" v
                   [ t; !add; !drop ]
                   (Printf.sprintf
                      "membership of %d observed after a forced remove" x))
          else if f >= 0 then
            Some
              (Record.violation ~kind ~rule:"set.false-read" v
                 (f :: !add :: (if !drop < 0 then [] else [ !drop ]))
                 (Printf.sprintf
                    "absence of %d observed while it is forced present" x))
          else begin
            (* certificate: add early, active drop late; a drop
               finishing before the add can start is the inactive
               (no-op, pre-add) kind *)
            let pa = start !add and d = !drop in
            active := d >= 0 && Rat.le pa (finish d);
            if find ops yes_outside yes no >= 0 then
              infeasible x "membership test outside presence window"
            else if find ops no_inside no hi >= 0 then
              infeasible x "false test inside presence window"
            else begin
              if d >= 0 && not !active then emit (start d) 0 d;
              emit pa 1 !add;
              for k = yes to no - 1 do
                emit (Rat.max (start ops.(k)) pa) 2 ops.(k)
              done;
              if !active then emit (finish d) 3 d;
              (* a false test after the add follows the active drop,
                 or [no_inside] would have held *)
              for k = no to hi - 1 do
                let f = ops.(k) in
                if Rat.le (start f) pa then emit (start f) 0 f
                else emit (Rat.max (start f) (finish d)) 4 f
              done;
              None
            end
          end
        end
      in
      let rec values lo =
        if lo = len then
          (* every operation has its point *)
          Record.Order
            (Record.sorted_ids n (fun a b ->
                 match Rat.compare point.(a) point.(b) with
                 | 0 -> Int.compare seq.(a) seq.(b)
                 | c -> c))
        else
          let c = cls.(ops.(lo)) in
          let drops = upto v cls ops c 0 lo in
          let yes = upto v cls ops c 1 drops in
          let no = upto v cls ops c 2 yes in
          let hi = upto v cls ops c 3 no in
          match solve lo drops yes no hi with
          | Some o -> o
          | None -> values hi
      in
      values 0
