(* The scenario data model: one first-class value naming every knob of
   a run — data type, model point, delay schedule, fault plan, checker,
   algorithm variant (including ablation knobs), workload, budgets — plus
   what the run is *expected* to do: certify, violate (with a witness),
   or abort with a named diagnostic, optionally refined by a temporal
   predicate over the observed trace.

   Everything is plain data (no closures), so scenarios compare with
   structural equality, round-trip through the s-expression codec, and
   shrink by enumerating smaller values. *)

(* Delay schedule.  The symbolic cases are seed-deterministic families
   (resolved against the scenario's model and seed); [Matrix] pins every
   edge, which is what shrinking and bound-probing operate on. *)
type delays =
  | Random_delays  (** admissible i.i.d. delays from the scenario seed *)
  | Max_delays  (** every edge at [d] *)
  | Min_delays  (** every edge at [d - u] *)
  | Matrix of Rat.t array array  (** fixed per-edge delays *)

(* An invocation is referenced by data, not by a concrete [T.invocation]
   value (which would not be serializable across the ten types):
   [Sample] picks from the type's canonical [sample_invocations] among
   those matching operation [op]; [Tagged] draws [gen_tagged ~tag] until
   the drawn invocation's operation matches, so explicit schedules can
   name distinct values (queue [Tagged enqueue 54] is [Enqueue 55]). *)
type op_ref =
  | Sample of { op : string; index : int }
  | Tagged of { op : string; tag : int }

type entry = { proc : int; at : Rat.t; op : op_ref }

type workload =
  | Explicit of entry list  (** open loop: explicit invocation times *)
  | Closed_loop of { per_proc : int; think : Rat.t }
      (** random closed loop from the scenario seed *)
  | Generated of {
      arrival : Core.Workload.arrival;
      zipf : float;
      keys : int;
      ops : int;
    }  (** streaming [Workload.Gen] traffic, routed round-robin *)

(* Algorithm choice.  Unlike [Runtime.algorithm], the Wtlw case also
   carries an ablation knob, so the unsound paper-verbatim timing (and
   every other ablation variant) is expressible as scenario data. *)
type algorithm =
  | Wtlw of { x : Rat.t; knob : Core.Ablation.knob }
  | Centralized
  | Tob

(* Atoms evaluated at each completed operation, in response order. *)
type state_atom =
  | Completed_ge of int  (** at least [k] operations completed so far *)
  | Latency_le of Rat.t  (** this operation's latency is at most [t] *)
  | Op_is of string  (** this operation is the named one *)
  | Resp_by of Rat.t  (** this operation responded by real time [t] *)

(* Atoms evaluated once, on the final report. *)
type final_atom =
  | Pending_le of int
  | Messages_le of int
  | Faults_le of int
  | Linearizable
  | Converged
      (** all replicas hold equal states at quiescence (Wtlw runs
          only; vacuously true for the centralized/TOB baselines) *)

type pred =
  | True
  | Not of pred
  | And of pred * pred
  | Or of pred * pred
  | Always of state_atom  (** holds at every completed operation *)
  | Eventually of state_atom  (** holds at some completed operation *)
  | Finally of final_atom  (** holds on the final report *)

type expect =
  | Certify  (** the run must be [Runtime.ok] and satisfy [predicate] *)
  | Violate
      (** the run must complete but fail certification (or fail the
          predicate) — the executor reports which clause, as the
          witness *)
  | Diagnostic of string
      (** the run must abort with a named diagnostic containing this
          substring (node budget, deadline, ...) *)

type t = {
  name : string;
  dt : string;  (** a [Packed_type] key, e.g. ["queue"] *)
  model : Sim.Model.t;
  offsets : Rat.t array;  (** clock offsets, length [model.n] *)
  delays : delays;
  faults : Sim.Fault.plan;
  reliable : bool;  (** wrap in the [Core.Reliable] channel *)
  checker : Core.Runtime.checker;
  algorithm : algorithm;
  workload : workload;
  seed : int;  (** drives delay sampling and workload generation *)
  max_events : int option;
  max_check_nodes : int option;
  expect : expect;
  predicate : pred;
}

let make ?(name = "scenario") ~dt ~model ?offsets ?(delays = Random_delays)
    ?(faults = Sim.Fault.none) ?(reliable = false)
    ?(checker = Core.Runtime.Monitor) ~algorithm ~workload ?(seed = 1)
    ?max_events ?max_check_nodes ?(expect = Certify) ?(predicate = True) () =
  let offsets =
    match offsets with
    | Some o -> o
    | None -> Array.make model.Sim.Model.n Rat.zero
  in
  {
    name;
    dt;
    model;
    offsets;
    delays;
    faults;
    reliable;
    checker;
    algorithm;
    workload;
    seed;
    max_events;
    max_check_nodes;
    expect;
    predicate;
  }

let equal (a : t) (b : t) = a = b

(* The range checks every scenario passes before it runs, whether it
   was decoded or built in code.  Loops and helpers closed over nothing:
   every sweep cell comes through here, and a valid scenario allocates
   nothing. *)
let validate s =
  let rec entries n = function
    | [] -> ()
    | { proc; _ } :: rest ->
        if proc < 0 || proc >= n then
          invalid_arg (Printf.sprintf "entry proc %d outside the model" proc);
        entries n rest
  in
  let budget field = function
    | Some k when k < 1 ->
        invalid_arg (Printf.sprintf "%s: %d is not positive" field k)
    | _ -> ()
  in
  let n = s.model.Sim.Model.n in
  match
    if Array.length s.offsets <> n then
      invalid_arg "offsets: offsets length must equal the model's n";
    (match s.delays with
    | Matrix m ->
        for src = 0 to n - 1 do
          if Array.length m <> n || Array.length m.(src) <> n then
            invalid_arg "delays: matrix must be n x n"
        done;
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if Rat.sign m.(src).(dst) < 0 then
              invalid_arg
                (Printf.sprintf "delays: delay %s from %d to %d is negative"
                   (Rat.to_string m.(src).(dst)) src dst)
          done
        done
    | Random_delays | Max_delays | Min_delays -> ());
    (try Sim.Fault.check s.faults ~n
     with Invalid_argument m -> invalid_arg ("faults: " ^ m));
    (match s.workload with
    | Closed_loop { per_proc; _ } when per_proc < 0 ->
        invalid_arg
          (Printf.sprintf "closed-loop per_proc %d is negative" per_proc)
    | Explicit l -> entries n l
    | Closed_loop _ | Generated _ -> ());
    budget "max-events" s.max_events;
    budget "max-check-nodes" s.max_check_nodes
  with
  | () -> Ok ()
  | exception Invalid_argument m -> Error m

let with_knob s knob =
  match s.algorithm with
  | Wtlw w -> { s with algorithm = Wtlw { w with knob } }
  | Centralized | Tob -> s

let with_expect s expect = { s with expect }

(* The "uniform point" of a model: the midpoint delay [d - u/2] every
   matrix entry is shrunk toward (shrinking to the envelope's interior
   keeps the matrix admissible whatever [u] is). *)
let uniform_point (m : Sim.Model.t) = Rat.sub m.Sim.Model.d (Rat.div_int m.Sim.Model.u 2)

let invocations (s : t) =
  match s.workload with
  | Explicit l -> List.length l
  | Closed_loop { per_proc; _ } -> per_proc * s.model.Sim.Model.n
  | Generated { ops; _ } -> ops

(* Shrink-ordering metric: explicit invocations (or generated ops),
   plus every matrix entry off the uniform point, plus fault specs,
   plus one for a nonzero seed.  The shrinker only ever accepts
   candidates that reduce this. *)
let size (s : t) =
  let matrix_weight =
    match s.delays with
    | Matrix m ->
        let mid = uniform_point s.model in
        Array.fold_left
          (fun acc row ->
            Array.fold_left
              (fun acc x -> if Rat.equal x mid then acc else acc + 1)
              acc row)
          0 m
    | Random_delays | Max_delays | Min_delays -> 0
  in
  invocations s + matrix_weight
  + List.length s.faults.Sim.Fault.specs
  + (if s.seed = 0 then 0 else 1)
