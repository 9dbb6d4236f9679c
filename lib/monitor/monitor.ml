(* Log-linear per-type linearizability monitors (library root).

   [Make (T)] is the [for_type] dispatcher: it inspects [T.monitor] —
   the canonical-observation viewer each specification optionally
   declares — and routes complete histories to the specialized
   O(n log n) kernel for the declared shape (register, set, queue,
   stack, priority queue).  A history no kernel decides — any history
   of an unmonitored type among them — is checked against the order
   the protocol linearized it in, when the caller supplies one, and
   goes to the Wing-Gong DFS ([Lin.Checker]) only when that fails.

   The monitors are {e certifying}, which is what makes the fast path
   safe to trust by default:

   - a reject is always backed by a {!Violation.t} witness justified by
     a necessary condition for linearizability of the claimed type;
   - an accept is always backed by a candidate linearization that this
     dispatcher re-verifies — a full semantic replay against [T.apply]
     plus an O(n) real-time sweep — before reporting;
   - anything else (ambiguous values, out-of-vocabulary observations,
     greedy incompleteness, types with no monitor) goes to the next
     stage: the supplied order ([check_array ?order]), checked by the same
     verifier; and only when that order is refused (a named
     {!order_failure}) or absent, to Wing-Gong.  So the monitor path
     never changes an answer, only the time it takes.

   One verifier ([verify_order]) checks kernel certificates, supplied
   orders and Wing-Gong's linearizations alike: a supplied order is
   only ever a candidate, so a wrong one costs a Wing-Gong run, never a
   wrong verdict; and no accept, whichever engine found it, is reported
   before its order replays.

   The kernels read the history as columns ({!Record.view}) built
   straight from the operation array, and every witness — a kernel
   certificate, a supplied order, a Wing-Gong search — is one
   [int array] of history positions from the engine that found it to
   the result, so certification builds no heap block per operation
   beyond the observation the viewer returns, which dies at once.

   [Make (T)] also carries the workload side of the tooling: a
   seed-deterministic generator of unambiguous concurrent histories
   (linearizable by construction) and a response-swapping corruptor
   for injecting violations.  Completed histories are the only input:
   the kernels are the one copy of the rules. *)

module V = Spec.Adt_view
module Violation = Violation
module Record = Record

type method_ = Specialized of V.kind | Protocol_order | Wing_gong

let method_to_string = function
  | Specialized k -> V.kind_to_string k ^ " monitor"
  | Protocol_order -> "protocol-order"
  | Wing_gong -> "wing-gong"

(* The declared monitor shape of a packed specification, if any. *)
let monitored_kind (module T : Spec.Data_type.S) : V.kind option =
  Option.map (fun vw -> vw.V.kind) T.monitor

let kernel kind view =
  match kind with
  | V.Register -> Register_kernel.check view
  | V.Set -> Set_kernel.check view
  | V.Queue | V.Stack | V.Priority_queue -> Container_kernel.check ~kind view

(* The kernel over records rather than columns: an adapter for callers
   that still build [Record.t] arrays (ids their positions). *)
let kernel_for kind records = kernel kind (Record.of_records records)

(* Why the verifier refused a candidate linearization.  Every index is
   a position in the checked history. *)
type order_failure =
  | Out_of_range of int  (** an index outside the history *)
  | Duplicated of int  (** an operation placed twice *)
  | Dropped of int  (** an operation the order leaves out *)
  | Replay_mismatch of { op : int; overtook : int option }
      (** [op]'s response is not what the specification returns at its
          place in the order.  [overtook]: the nearest operation placed
          before [op] without which [op]'s response would replay — the
          operation [op] was answered without *)
  | Real_time_inversion of { first : int; second : int }
      (** [second] responded before [first] was invoked, yet the order
          places it after [first] *)

let order_failure_reason = function
  | Out_of_range _ | Duplicated _ | Dropped _ -> "is not a permutation"
  | Replay_mismatch _ -> "fails semantic replay"
  | Real_time_inversion _ -> "breaks real-time order"

module Make (T : Spec.Data_type.S) = struct
  module Fallback = Lin.Checker.Make (T)

  type op = (T.invocation, T.response) Sim.Trace.operation

  type result = {
    linearizable : bool;
    linearization : int array option;
        (** witness order when linearizable: history positions, first
            to last *)
    method_ : method_;  (** which engine produced the verdict *)
    fallback : string Lazy.t option;
        (** why the kernel did not decide, when it did not (the verdict
            then came from the supplied order or from Wing-Gong),
            rendered when forced *)
    violation : Violation.t option;  (** monitor witness when rejected *)
    order_failure : order_failure option;
        (** why a candidate order was refused, when one was: the
            supplied order (Wing-Gong then decided), or Wing-Gong's own
            (the history is then not reported linearizable) *)
  }

  let viewer = T.monitor

  (* The kernels' columns over [arr]: one observation per operation,
     decoded as it is read, and the operations' own times.  [None] at
     the first observation outside the monitor vocabulary, before the
     time columns are built: no kernel reads such a history. *)
  let view_of vw (arr : op array) : Record.view option =
    let n = Array.length arr in
    let tags = Bytes.create n and value = Array.make n 0 in
    let i = ref 0 in
    while
      !i < n
      &&
      let o = arr.(!i) in
      match vw.V.obs o.inv o.resp with
      | V.Opaque -> false
      | obs ->
          Record.set_obs tags value !i obs;
          true
    do
      incr i
    done;
    if !i < n then None
    else
      Some
        {
          Record.n;
          tags;
          value;
          start = Array.map (fun (o : op) -> o.inv_time) arr;
          finish = Array.map (fun (o : op) -> o.resp_time) arr;
          proc = (fun i -> arr.(i).proc);
        }

  (* One operation as a record, for {!kernel_for}. *)
  let record_of vw i (o : op) =
    {
      Record.id = i;
      proc = o.proc;
      obs = vw.V.obs o.inv o.resp;
      start = o.inv_time;
      finish = o.resp_time;
    }

  (* How far back [explain_replay] looks for the operation a
     non-replaying response was answered without. *)
  let overtake_window = 64

  (* [order.(p)] does not replay: find the nearest earlier position [j]
     (within [overtake_window]) such that replaying the prefix without
     [order.(j)] gives [order.(p)] its recorded response.  Runs only on
     a failed check, so it may replay the prefix again. *)
  let explain_replay (arr : op array) (order : int array) p =
    let lo = max 0 (p - overtake_window) in
    let st = ref T.initial in
    for i = 0 to lo - 1 do
      st := fst (T.apply !st arr.(order.(i)).inv)
    done;
    let before = Array.make (p - lo + 1) !st in
    for i = lo to p - 1 do
      before.(i - lo + 1) <-
        fst (T.apply before.(i - lo) arr.(order.(i)).inv)
    done;
    let target = arr.(order.(p)) in
    let replays_without j =
      let st = ref before.(j - lo) in
      for i = j + 1 to p - 1 do
        st := fst (T.apply !st arr.(order.(i)).inv)
      done;
      T.equal_response (snd (T.apply !st target.inv)) target.resp
    in
    let rec scan j =
      if j < lo then None
      else if replays_without j then Some order.(j)
      else scan (j - 1)
    in
    scan (p - 1)

  (* The verifier's three checks, each one left-to-right pass over the
     order that builds nothing but its answer.

     A permutation: every index in range, none placed twice, none left
     out. *)
  let permutation_failure n (order : int array) =
    let seen = Record.Flags.make n false in
    let failure = ref None and p = ref 0 in
    while Option.is_none !failure && !p < Array.length order do
      let id = order.(!p) in
      if id < 0 || id >= n then failure := Some (Out_of_range id)
      else if Record.Flags.get seen id then failure := Some (Duplicated id)
      else Record.Flags.set seen id;
      incr p
    done;
    if Option.is_some !failure || Array.length order = n then !failure
    else begin
      let i = ref 0 in
      while Record.Flags.get seen !i do
        incr i
      done;
      Some (Dropped !i)
    end

  (* Replay [order] from position [p] in state [st]: the first
     operation whose recorded response is not the specification's.  The
     state is an argument rather than a variable a loop assigns: on the
     64 000-operation queue history of [repro bench]'s
     monitor-queue-64k section, the loop promoted 18% more words. *)
  let rec replay (arr : op array) order st p =
    if p = Array.length order then None
    else
      let id = order.(p) in
      let o = arr.(id) in
      let st', resp = T.apply st o.inv in
      if T.equal_response resp o.resp then replay arr order st' (p + 1)
      else
        let overtook = explain_replay arr order p in
        Some (Replay_mismatch { op = id; overtook })

  (* Real-time order as a prefix maximum: [worst] is the operation
     invoked last among those placed so far. *)
  let real_time_failure (arr : op array) (order : int array) =
    let failure = ref None and worst = ref (-1) and p = ref 0 in
    while Option.is_none !failure && !p < Array.length order do
      let id = order.(!p) in
      let o = arr.(id) and w = !worst in
      if w >= 0 && Rat.lt o.resp_time arr.(w).inv_time then
        failure := Some (Real_time_inversion { first = w; second = id })
      else if w < 0 || Rat.gt o.inv_time arr.(w).inv_time then worst := id;
      incr p
    done;
    !failure

  (* The one trusted checker.  [order] (history indices, first to
     last) must be a permutation of the history that replays against
     the sequential specification and never places an operation after
     one it precedes in real time.  The real-time test is a prefix
     maximum: an order is real-time consistent iff no operation
     responds before the latest invocation placed ahead of it.  Kernel
     certificates and protocol-supplied orders alike pass through
     here. *)
  let verify_order (arr : op array) (order : int array) :
      (unit, order_failure) Stdlib.result =
    match permutation_failure (Array.length arr) order with
    | Some f -> Error f
    | None -> (
        match replay arr order T.initial 0 with
        | Some f -> Error f
        | None -> (
            match real_time_failure arr order with
            | Some f -> Error f
            | None -> Ok ()))

  let pp_order_failure (arr : op array) ppf f =
    (* each operation on one line, whatever the enclosing margin *)
    let op ppf i =
      let b = Buffer.create 64 in
      let f = Format.formatter_of_buffer b in
      Format.pp_set_margin f 1_000_000;
      Format.fprintf f "%a@?" Fallback.pp_op arr.(i);
      Format.pp_print_string ppf (Buffer.contents b)
    in
    match f with
    | Out_of_range i -> Format.fprintf ppf "index %d is outside the history" i
    | Duplicated i -> Format.fprintf ppf "%a is placed twice" op i
    | Dropped i -> Format.fprintf ppf "%a is left out" op i
    | Replay_mismatch { op = i; overtook = Some j } ->
        Format.fprintf ppf
          "%a does not replay; it was answered without %a, placed before it"
          op i op j
    | Replay_mismatch { op = i; overtook = None } ->
        Format.fprintf ppf "%a does not replay" op i
    | Real_time_inversion { first; second } ->
        Format.fprintf ppf
          "%a is placed after %a, which it precedes in real time" op second
          op first

  (* Wing-Gong on the history array.  [reason] is why the kernel did
     not decide; it is absent when Wing-Gong runs as the oracle.  Its
     linearization passes [verify_order] like every other witness: the
     search memoises states by their [T.show_state] rendering, so two
     states that render alike could hand it an order that does not
     replay.  Such an order is named in [order_failure], and the
     history is not reported linearizable. *)
  let wing_gong ?max_nodes ?order_failure ?reason arr =
    let linearization, order_failure =
      match Fallback.positions ?max_nodes arr with
      | None -> (None, order_failure)
      | Some lin as found -> (
          match verify_order arr lin with
          | Ok () -> (found, order_failure)
          | Error f -> (None, Some f))
    in
    {
      linearizable = Option.is_some linearization;
      linearization;
      method_ = Wing_gong;
      fallback = reason;
      violation = None;
      order_failure;
    }

  (* The kernel-certificate form of [verify_order] for callers of
     {!kernel_for}; [records] carry nothing the verifier needs. *)
  let verify (arr : op array) (_ : Record.t array) order =
    Result.map_error
      (fun f -> "certificate " ^ order_failure_reason f)
      (verify_order arr order)

  (* The kernel did not decide, for [reason]: try the protocol's own
     order, if one was supplied, then Wing-Gong. *)
  let undecided ?max_nodes ?order arr reason =
    match order with
    | None -> wing_gong ?max_nodes ~reason arr
    | Some order_of -> (
        let lin = order_of arr in
        match verify_order arr lin with
        | Ok () ->
            {
              linearizable = true;
              linearization = Some lin;
              method_ = Protocol_order;
              fallback = Some reason;
              violation = None;
              order_failure = None;
            }
        | Error f -> wing_gong ?max_nodes ~order_failure:f ~reason arr)

  (* The one check. *)
  let check_array ?max_nodes ?order (arr : op array) : result =
    match viewer with
    | None ->
        undecided ?max_nodes ?order arr
          (lazy "no specialized monitor for this type")
    | Some vw -> (
        match view_of vw arr with
        | None ->
            undecided ?max_nodes ?order arr
              (lazy
                "history contains an observation outside the monitor \
                 vocabulary")
        | Some view -> (
          match kernel vw.V.kind view with
          | Record.Violation v ->
              {
                linearizable = false;
                linearization = None;
                method_ = Specialized vw.V.kind;
                fallback = None;
                violation = Some v;
                order_failure = None;
              }
          | Record.Unknown why -> undecided ?max_nodes ?order arr why
          | Record.Order lin -> (
              match verify_order arr lin with
              | Ok () ->
                  {
                    linearizable = true;
                    linearization = Some lin;
                    method_ = Specialized vw.V.kind;
                    fallback = None;
                    violation = None;
                    order_failure = None;
                  }
              | Error f ->
                  undecided ?max_nodes ?order arr
                    (lazy ("certificate " ^ order_failure_reason f)))))

  let check ?max_nodes ops = check_array ?max_nodes (Array.of_list ops)

  (* --- workload generation ---------------------------------------- *)

  type gen_action = Gput | Gtake | Gpeek | Ghas | Gdrop

  (* Seed-deterministic unambiguous history: a sequential run (each
     operation linearizes at integer point [i]) with its intervals
     jittered by up to 2 time units each side, so operations of
     different processes overlap freely while each value is inserted
     exactly once.  Linearizable by construction. *)
  let generate ?(seed = 0) ~n () : op list =
    match viewer with
    | None ->
        invalid_arg
          ("Monitor.generate: " ^ T.name ^ " declares no monitor viewer")
    | Some vw ->
        let procs = 8 in
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
