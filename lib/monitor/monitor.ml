(* Log-linear per-type linearizability monitors (library root).

   [Make (T)] is the [for_type] dispatcher: it inspects [T.monitor] —
   the canonical-observation viewer each specification optionally
   declares — and routes complete histories to the specialized
   O(n log n) kernel for the declared shape (register, set, queue,
   stack, priority queue), falling back to the Wing-Gong DFS
   ([Lin.Checker]) for arbitrary types and for histories the kernels
   cannot certify.

   The monitors are {e certifying}, which is what makes the fast path
   safe to trust by default:

   - a reject is always backed by a {!Violation.t} witness justified by
     a necessary condition for linearizability of the claimed type;
   - an accept is always backed by a candidate linearization that this
     dispatcher re-verifies — a full semantic replay against [T.apply]
     plus an O(n) real-time sweep — before reporting;
   - anything else (ambiguous values, out-of-vocabulary observations,
     greedy incompleteness) falls back to Wing-Gong, so the monitor
     path never changes an answer, only the time it takes.

   [Make (T)] also carries the workload side of the tooling: a
   seed-deterministic generator of unambiguous concurrent histories
   (linearizable by construction), a response-swapping corruptor for
   injecting violations, and the streaming {!Online} sink that watches
   a live [Sim.Trace] and flags violations mid-run. *)

module V = Spec.Adt_view
module Violation = Violation
module Record = Record
module Online = Online

type method_ = Specialized of V.kind | Wing_gong

let method_to_string = function
  | Specialized k -> V.kind_to_string k ^ " monitor"
  | Wing_gong -> "wing-gong"

let pp_method ppf m = Format.pp_print_string ppf (method_to_string m)

(* The declared monitor shape of a packed specification, if any. *)
let monitored_kind (module T : Spec.Data_type.S) : V.kind option =
  Option.map (fun vw -> vw.V.kind) T.monitor

let kernel_for = function
  | V.Register -> Register_kernel.check
  | V.Queue -> Queue_kernel.check
  | V.Stack -> Stack_kernel.check
  | V.Set -> Set_kernel.check
  | V.Priority_queue -> Pqueue_kernel.check

module Make (T : Spec.Data_type.S) = struct
  module Fallback = Lin.Checker.Make (T)

  type op = (T.invocation, T.response) Sim.Trace.operation

  type result = {
    linearizable : bool;
    linearization : op list option;  (** witness order when linearizable *)
    method_ : method_;  (** which engine produced the verdict *)
    fallback : string option;  (** why Wing-Gong ran, when it did *)
    violation : Violation.t option;  (** monitor witness when rejected *)
  }

  let viewer = T.monitor

  let record_of vw i (o : op) =
    {
      Record.id = i;
      proc = o.proc;
      obs = vw.V.obs o.inv o.resp;
      start = o.inv_time;
      finish = o.resp_time;
    }

  let fallback_check ?max_nodes ops reason =
    match Fallback.check ?max_nodes ops with
    | Some w ->
        {
          linearizable = true;
          linearization = Some w;
          method_ = Wing_gong;
          fallback = Some reason;
          violation = None;
        }
    | None ->
        {
          linearizable = false;
          linearization = None;
          method_ = Wing_gong;
          fallback = Some reason;
          violation = None;
        }

  (* The accept certificate: [order] must be a permutation of the
     history that replays against the sequential specification and
     never places an operation after one it precedes in real time. *)
  let verify (arr : op array) (records : Record.t array) order =
    let n = Array.length arr in
    let seen = Array.make n false in
    let count = ref 0 in
    let dup = ref false in
    List.iter
      (fun id ->
        if id < 0 || id >= n || seen.(id) then dup := true
        else begin
          seen.(id) <- true;
          incr count
        end)
      order;
    if !dup || !count <> n then Error "certificate is not a permutation"
    else
      let lin = List.map (fun id -> arr.(id)) order in
      let st = ref T.initial in
      let replays (o : op) =
        let st', resp = T.apply !st o.inv in
        st := st';
        T.equal_response resp o.resp
      in
      if not (List.for_all replays lin) then
        Error "certificate fails semantic replay"
      else
        match Record.real_time_conflict records order with
        | Some _ -> Error "certificate breaks real-time order"
        | None -> Ok lin

  let check ?max_nodes (ops : op list) : result =
    match viewer with
    | None ->
        fallback_check ?max_nodes ops "no specialized monitor for this type"
    | Some vw -> (
        let arr = Array.of_list ops in
        let records = Array.mapi (record_of vw) arr in
        if Array.exists (fun r -> r.Record.obs = V.Opaque) records then
          fallback_check ?max_nodes ops
            "history contains an observation outside the monitor vocabulary"
        else
          match kernel_for vw.V.kind records with
          | Record.Violation v ->
              {
                linearizable = false;
                linearization = None;
                method_ = Specialized vw.V.kind;
                fallback = None;
                violation = Some v;
              }
          | Record.Unknown why -> fallback_check ?max_nodes ops why
          | Record.Order order -> (
              match verify arr records order with
              | Ok lin ->
                  {
                    linearizable = true;
                    linearization = Some lin;
                    method_ = Specialized vw.V.kind;
                    fallback = None;
                    violation = None;
                  }
              | Error why -> fallback_check ?max_nodes ops why))

  let is_linearizable ?max_nodes ops = (check ?max_nodes ops).linearizable

  let check_trace ?max_nodes trace =
    check ?max_nodes (Sim.Trace.operations trace)

  (* --- online ----------------------------------------------------- *)

  exception Violation_detected of Violation.t

  type online = {
    state : Online.t option;  (** [None]: type has no monitor, inert *)
    mutable seen : int;
  }

  let attach ?(abort = false) trace =
    match viewer with
    | None -> { state = None; seen = 0 }
    | Some vw ->
        let st = Online.create vw.V.kind in
        let h = { state = Some st; seen = 0 } in
        Sim.Trace.on_operation trace (fun (o : op) ->
            let r = record_of vw h.seen o in
            h.seen <- h.seen + 1;
            match Online.observe st r with
            | Some v when abort -> raise (Violation_detected v)
            | _ -> ());
        h

  let online_violation h = Option.bind h.state Online.violation

  let online_finalize h =
    match h.state with None -> None | Some st -> Online.finalize st

  let online_status h =
    match h.state with
    | None -> `Inert "no specialized monitor for this type"
    | Some st -> Online.status st

  (* --- workload generation ---------------------------------------- *)

  type gen_action = Gput | Gtake | Gpeek | Ghas | Gdrop

  (* Seed-deterministic unambiguous history: a sequential run (each
     operation linearizes at integer point [i]) with its intervals
     jittered by up to 2 time units each side, so operations of
     different processes overlap freely while each value is inserted
     exactly once.  Linearizable by construction. *)
  let generate ?(seed = 0) ?(procs = 8) ~n () : op list =
    match viewer with
    | None ->
        invalid_arg
          ("Monitor.generate: " ^ T.name ^ " declares no monitor viewer")
    | Some vw ->
        let procs = max procs 5 in
        (* per-process operations must not overlap: same-process points
           are [procs] apart and jitter stays below 2 on each side *)
        let rng = Random.State.make [| 0x6d6f6e; seed |] in
        let actions =
          List.concat
            [
              [ Gput; Gput; Gput; Gput; Gput ];
              (if vw.V.take <> None then [ Gtake; Gtake; Gtake ] else []);
              (if vw.V.peek <> None then [ Gpeek; Gpeek ] else []);
              (if vw.V.has <> None then [ Ghas; Ghas ] else []);
              (if vw.V.drop <> None then [ Gdrop ] else []);
            ]
        in
        let actions = Array.of_list actions in
        let state = ref T.initial in
        let next = ref 1 in
        let added = ref (Array.make 16 0) in
        let n_added = ref 0 in
        let push_added v =
          if !n_added = Array.length !added then begin
            let b = Array.make (2 * !n_added) 0 in
            Array.blit !added 0 b 0 !n_added;
            added := b
          end;
          !added.(!n_added) <- v;
          incr n_added
        in
        let pick_added () =
          if !n_added = 0 then None
          else Some !added.(Random.State.int rng !n_added)
        in
        let dropped = Hashtbl.create 97 in
        let ops = ref [] in
        for i = 0 to n - 1 do
          let inv =
            let fresh () =
              let v = !next in
              incr next;
              push_added v;
              vw.V.put v
            in
            match actions.(Random.State.int rng (Array.length actions)) with
            | Gput -> fresh ()
            | Gtake -> Option.get vw.V.take
            | Gpeek -> Option.get vw.V.peek
            | Ghas ->
                let v =
                  if Random.State.bool rng then
                    match pick_added () with
                    | Some v -> v
                    | None -> n + 1 + Random.State.int rng n
                  else n + 1 + Random.State.int rng n
                in
                (Option.get vw.V.has) v
            | Gdrop -> (
                (* drop each value at most once, keeping the history
                   unambiguous for the set kernel *)
                let rec try_pick k =
                  if k = 0 then None
                  else
                    match pick_added () with
                    | Some v when not (Hashtbl.mem dropped v) ->
                        Hashtbl.add dropped v ();
                        Some v
                    | _ -> try_pick (k - 1)
                in
                match try_pick 3 with
                | Some v -> (Option.get vw.V.drop) v
                | None -> fresh ())
          in
          let state', resp = T.apply !state inv in
          state := state';
          let point = Rat.of_int i in
          let jit () = Rat.make (Random.State.int rng 200) 100 in
          let op : op =
            {
              proc = i mod procs;
              inv;
              resp;
              inv_time = Rat.sub point (jit ());
              resp_time = Rat.add point (jit ());
            }
          in
          ops := op :: !ops
        done;
        List.rev !ops

  (* Inject a violation by swapping the responses of two same-shaped
     observations with different values — takes if the type has them,
     else peeks, else membership tests.  The swap is locally plausible
     (each response still has the right constructor) but contradicts
     the order the values were inserted in.  Returns [false] when the
     history offers no swappable pair. *)
  let corrupt (ops : op list) : op list * bool =
    match viewer with
    | None -> (ops, false)
    | Some vw ->
        let arr = Array.of_list ops in
        let obs i = vw.V.obs arr.(i).inv arr.(i).resp in
        let indices pred =
          let acc = ref [] in
          Array.iteri (fun i _ -> if pred (obs i) then acc := i :: !acc) arr;
          List.rev !acc
        in
        let far_pair l ~differ =
          match l with
          | [] | [ _ ] -> None
          | first :: _ -> (
              match
                List.find_opt (fun j -> differ first j) (List.rev l)
              with
              | Some last -> Some (first, last)
              | None -> None)
        in
        let takes =
          indices (function V.Take (Some _) -> true | _ -> false)
        in
        let peeks =
          indices (function V.Peek (Some _) -> true | _ -> false)
        in
        let has = indices (function V.Has _ -> true | _ -> false) in
        let value i =
          match obs i with
          | V.Take (Some v) | V.Peek (Some v) -> v
          | V.Has (v, _) -> v
          | _ -> min_int
        in
        let truth i =
          match obs i with V.Has (_, b) -> b | _ -> false
        in
        let pair =
          match far_pair takes ~differ:(fun a b -> value a <> value b) with
          | Some p -> Some p
          | None -> (
              match
                far_pair peeks ~differ:(fun a b -> value a <> value b)
              with
              | Some p -> Some p
              | None ->
                  far_pair has ~differ:(fun a b -> truth a <> truth b))
        in
        (match pair with
        | Some (i, j) when i <> j ->
            let ri = arr.(i) and rj = arr.(j) in
            arr.(i) <- { ri with resp = rj.resp };
            arr.(j) <- { rj with resp = ri.resp }
        | _ -> ());
        (Array.to_list arr, Option.is_some pair)
end
