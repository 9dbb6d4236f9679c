(* Exhaustive differential suite: every small history of each monitored
   container and register type, checked by the monitor dispatcher
   ([Monitor.Make(T).check_array]) and by Wing-Gong ([wing_gong]).

   A history here is [k] operations, each on its own process, over
   values {1, 2}:
   - every order of the [2k] endpoints, up to renaming the operations:
     operation [i] is the [i]-th invoked, so the orders are the
     (2k - 1)!! ways of interleaving the responses with the
     invocations, all endpoints distinct;
   - every (invocation, response) pair the type can give: each of the
     viewer's canonical invocations over {1, 2}, with every response
     it returns in some state that at most [k] operations reach.

   A kernel reject must be a Wing-Gong reject, and a kernel accept a
   Wing-Gong accept.  The per-type counts of kernel accepts, kernel
   rejects and fallbacks are pinned, so a kernel change that moves a
   history between them shows here. *)

let depth = 3

(* The interval orders of [k] operations: for each, the invocation and
   response times of every operation, on the integers [0, 2k). *)
let endpoint_orders k =
  let orders = ref [] in
  let start = Array.make k 0 and finish = Array.make k 0 in
  let rec go t invoked open_ =
    if t = 2 * k then orders := (Array.copy start, Array.copy finish) :: !orders
    else begin
      if invoked < k then begin
        start.(invoked) <- t;
        go (t + 1) (invoked + 1) (invoked :: open_)
      end;
      List.iter
        (fun i ->
          finish.(i) <- t;
          go (t + 1) invoked (List.filter (( <> ) i) open_))
        open_
    end
  in
  go 0 0 [];
  List.rev !orders

type tally = { accepts : int; rejects : int; fallbacks : int }

module Exhaustive (T : Spec.Data_type.S) = struct
  module M = Monitor.Make (T)

  let invocations =
    let vw = Option.get T.monitor in
    let both f = [ f 1; f 2 ] in
    List.concat
      [
        both vw.put;
        Option.to_list vw.take;
        Option.to_list vw.peek;
        Option.fold ~none:[] ~some:both vw.has;
        Option.fold ~none:[] ~some:both vw.drop;
      ]

  (* The states at most [k] operations reach, breadth first. *)
  let reachable k =
    let add seen st =
      if List.exists (T.equal_state st) seen then seen else st :: seen
    in
    let rec grow seen frontier k =
      if k = 0 || frontier = [] then seen
      else
        let next =
          List.fold_left
            (fun acc st ->
              List.fold_left
                (fun acc inv ->
                  let st' = fst (T.apply st inv) in
                  if List.exists (T.equal_state st') seen then acc
                  else add acc st')
                acc invocations)
            [] frontier
        in
        grow (List.fold_left add seen next) next (k - 1)
    in
    grow [ T.initial ] [ T.initial ] k

  (* Every (invocation, response) pair some reachable state gives. *)
  let pairs k =
    let states = reachable k in
    List.concat_map
      (fun inv ->
        List.fold_left
          (fun acc st ->
            let resp = snd (T.apply st inv) in
            if List.exists (fun (_, r) -> T.equal_response r resp) acc then acc
            else acc @ [ (inv, resp) ])
          [] states)
      invocations

  let run () =
    let accepts = ref 0 and rejects = ref 0 and fallbacks = ref 0 in
    for k = 1 to depth do
      let pairs = Array.of_list (pairs k) in
      let np = Array.length pairs in
      List.iter
        (fun (start, finish) ->
          let history choice : M.op array =
            Array.init k (fun i ->
                let inv, resp = pairs.(choice.(i)) in
                {
                  Sim.Trace.proc = i;
                  inv;
                  resp;
                  inv_time = Rat.of_int start.(i);
                  resp_time = Rat.of_int finish.(i);
                })
          in
          let choice = Array.make k 0 in
          let rec each i =
            if i = k then begin
              let arr = history choice in
              let r = M.check_array arr in
              let w = (M.wing_gong arr).M.linearizable in
              let disagree what =
                Alcotest.failf "%s: kernel %s, wing-gong %s:@.%a" T.name what
                  (if w then "accepts" else "rejects")
                  (Format.pp_print_list M.Fallback.pp_op)
                  (Array.to_list arr)
              in
              match r.M.method_ with
              | Monitor.Specialized _ ->
                  if r.M.linearizable then begin
                    incr accepts;
                    if not w then disagree "accepts"
                  end
                  else begin
                    incr rejects;
                    if w then disagree "rejects"
                  end
              | _ ->
                  incr fallbacks;
                  if r.M.linearizable <> w then disagree "falls back and differs"
            end
            else
              for c = 0 to np - 1 do
                choice.(i) <- c;
                each (i + 1)
              done
          in
          each 0)
        (endpoint_orders k)
    done;
    { accepts = !accepts; rejects = !rejects; fallbacks = !fallbacks }
end

let pinned (module T : Spec.Data_type.S) expected () =
  let module E = Exhaustive (T) in
  let got = E.run () in
  let show t =
    Printf.sprintf "%d accepts, %d rejects, %d fallbacks" t.accepts t.rejects
      t.fallbacks
  in
  Alcotest.(check string) (T.name ^ " counts") (show expected) (show got)

let () =
  Alcotest.run "differential"
    [
      ( "exhaustive small histories",
        [
          Alcotest.test_case "register" `Quick
            (pinned (module Spec.Register)
               { accepts = 507; rejects = 1044; fallbacks = 404 });
          Alcotest.test_case "set" `Quick
            (pinned (module Spec.Set_type)
               { accepts = 3122; rejects = 3628; fallbacks = 1130 });
          Alcotest.test_case "queue" `Quick
            (pinned (module Spec.Fifo_queue)
               { accepts = 1546; rejects = 5652; fallbacks = 682 });
          Alcotest.test_case "stack" `Quick
            (pinned (module Spec.Stack_type)
               { accepts = 1578; rejects = 5620; fallbacks = 682 });
          Alcotest.test_case "priority queue" `Quick
            (pinned (module Spec.Priority_queue)
               { accepts = 1510; rejects = 5644; fallbacks = 726 });
        ] );
    ]
