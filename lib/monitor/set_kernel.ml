(* Set monitor: values are mutually independent, so the history
   decomposes per value — each value sees at most one [Put] (add), at
   most one [Drop] (remove; more than one falls back), and any number
   of [Has] membership tests.

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
   and the history goes to Wing-Gong. *)

module V = Spec.Adt_view
module Tag = Record.Tag

let kind = V.Set

(* One value's operations, as positions. *)
type value_ops = {
  value : int;
  mutable add : int option;
  mutable drops : int list;
  mutable yes : int list;  (** Has (v, true) *)
  mutable no : int list;  (** Has (v, false) *)
}

let check (v : Record.view) : Record.outcome =
  let start i = v.start.(i) and finish i = v.finish.(i) in
  let table : (int, value_ops) Hashtbl.t = Hashtbl.create 97 in
  let ops_for x =
    match Hashtbl.find_opt table x with
    | Some o -> o
    | None ->
        let o = { value = x; add = None; drops = []; yes = []; no = [] } in
        Hashtbl.add table x o;
        o
  in
  let bad = ref None in
  let flag o = if !bad = None then bad := Some o in
  for r = 0 to v.n - 1 do
    let x = v.value.(r) in
    match Record.tag v r with
    | Tag.Put -> (
        let o = ops_for x in
        match o.add with
        | Some _ ->
            flag
              (Record.Unknown
                 (Printf.sprintf "value %d added twice; ambiguous" x))
        | None -> o.add <- Some r)
    | Tag.Drop ->
        let o = ops_for x in
        o.drops <- r :: o.drops
    | Tag.Has_true ->
        let o = ops_for x in
        o.yes <- r :: o.yes
    | Tag.Has_false ->
        let o = ops_for x in
        o.no <- r :: o.no
    | _ ->
        flag
          (Record.Unknown
             (Printf.sprintf "observation %s outside set vocabulary"
                (V.obs_to_string (Record.obs v r))))
  done;
  (* Virtual linearization points, per operation: primary key the
     rational point, [seq] breaks exact ties in per-value semantic
     order (false-before / inactive drop, add, true tests, active drop,
     false-after), and position breaks the rest. *)
  let point = Array.make v.n Rat.zero and seq = Array.make v.n 0 in
  let emit key s r =
    point.(r) <- key;
    seq.(r) <- s
  in
  let solve (o : value_ops) =
    if !bad <> None then ()
    else
      match o.add with
      | None -> (
          (* never added: membership must read false, drops are no-ops *)
          match o.yes with
          | t :: _ ->
              flag
                (Record.violation ~kind ~rule:"set.fresh" v [ t ]
                   (Printf.sprintf
                      "membership of %d observed but value never added"
                      o.value))
          | [] ->
              List.iter (fun r -> emit (start r) 0 r) (o.drops @ o.no))
      | Some add -> (
          let drop =
            match o.drops with
            | [] -> None
            | [ d ] -> Some d
            | _ :: _ :: _ ->
                flag
                  (Record.Unknown
                     (Printf.sprintf "value %d removed twice; ambiguous"
                        o.value));
                None
          in
          if !bad <> None then ()
          else begin
            (* necessary patterns first *)
            List.iter
              (fun t ->
                if Rat.lt (finish t) (start add) then
                  flag
                    (Record.violation ~kind ~rule:"set.before-add" v [ t; add ]
                       (Printf.sprintf
                          "membership of %d observed entirely before its add"
                          o.value))
                else
                  match drop with
                  | Some d
                    when Rat.lt (finish add) (start d)
                         && Rat.lt (finish d) (start t) ->
                      flag
                        (Record.violation ~kind ~rule:"set.after-drop" v
                           [ t; add; d ]
                           (Printf.sprintf
                              "membership of %d observed after a forced \
                               remove"
                              o.value))
                  | _ -> ())
              o.yes;
            List.iter
              (fun f ->
                if
                  Rat.lt (finish add) (start f)
                  &&
                  match drop with
                  | None -> true
                  | Some d -> Rat.lt (finish f) (start d)
                then
                  flag
                    (Record.violation ~kind ~rule:"set.false-read" v
                       ([ f; add ] @ Option.to_list drop)
                       (Printf.sprintf
                          "absence of %d observed while it is forced present"
                          o.value)))
              o.no;
            if !bad <> None then ()
            else begin
              (* certificate: add early, active drop late *)
              let pa = start add in
              let active =
                (* a drop finishing before the add can start must be the
                   inactive (no-op, pre-add) kind *)
                match drop with
                | Some d when Rat.le pa (finish d) -> Some d
                | _ -> None
              in
              let inactive =
                match (drop, active) with
                | Some d, None -> Some d
                | _ -> None
              in
              let pd = Option.map finish active in
              let infeasible = ref None in
              let need msg cond = if not cond && !infeasible = None then infeasible := Some msg in
              Option.iter
                (fun d -> need "inactive remove after add" (Rat.le (start d) pa))
                inactive;
              List.iter
                (fun t ->
                  need "membership test outside presence window"
                    (Rat.le pa (finish t)
                    &&
                    match pd with
                    | None -> true
                    | Some pd -> Rat.le (Rat.max (start t) pa) pd))
                o.yes;
              List.iter
                (fun f ->
                  need "false test inside presence window"
                    (Rat.le (start f) pa
                    ||
                    match pd with
                    | None -> false
                    | Some pd -> Rat.le pd (finish f)))
                o.no;
              match !infeasible with
              | Some msg ->
                  flag
                    (Record.Unknown
                       (Printf.sprintf "set value %d: %s" o.value msg))
              | None ->
                  Option.iter (fun d -> emit (start d) 0 d) inactive;
                  emit pa 1 add;
                  List.iter (fun t -> emit (Rat.max (start t) pa) 2 t) o.yes;
                  Option.iter (fun d -> emit (finish d) 3 d) active;
                  List.iter
                    (fun f ->
                      if Rat.le (start f) pa then emit (start f) 0 f
                      else
                        emit
                          (match pd with
                          | Some pd -> Rat.max (start f) pd
                          | None -> start f)
                          4 f)
                    o.no
            end
          end)
  in
  Hashtbl.iter (fun _ o -> solve o) table;
  match !bad with
  | Some o -> o
  | None ->
      (* every operation has its point: an unplaced one flagged *)
      Order
        (Record.sorted_ids v.n (fun a b ->
             match Rat.compare point.(a) point.(b) with
             | 0 -> Int.compare seq.(a) seq.(b)
             | c -> c))
