(* Tests for the replay log the replicas of one cluster share
   (Core.Replica): a replica's states and responses are exactly those
   of its own sequential replay, whatever the other replicas do; an
   admissible run applies each mutator once per cluster; and a run
   whose replicas diverge still reports the divergence. *)

let rat = Rat.make

(* ---- Differential: shared log against per-replica folds ---- *)

module Differential (T : Spec.Data_type.S) = struct
  module R = Core.Replica.Make (T)

  (* A structurally equal invocation in a block of its own, so the
     log's [T.equal_invocation] path runs as well as its [==] one. *)
  let copy (inv : T.invocation) : T.invocation =
    Marshal.from_string (Marshal.to_string inv []) 0

  let shuffle rng a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a

  (* Each replica runs a shared prefix of one base sequence, then from
     its own divergence point either the rest of the base sequence, the
     rest reordered, or fresh invocations of its own. *)
  let sequences rng ~n =
    let base =
      Array.init (Random.State.int rng 40) (fun _ -> T.gen_invocation rng)
    in
    let len = Array.length base in
    Array.init n (fun _ ->
        let p = Random.State.int rng (len + 1) in
        let rest = Array.sub base p (len - p) in
        let suffix =
          match Random.State.int rng 3 with
          | 0 -> rest
          | 1 -> shuffle rng rest
          | _ ->
              Array.init (Random.State.int rng 12) (fun _ ->
                  T.gen_invocation rng)
        in
        Array.map
          (fun inv -> if Random.State.int rng 4 = 0 then copy inv else inv)
          (Array.append (Array.sub base 0 p) suffix))

  let agrees seed =
    let rng = Random.State.make [| seed |] in
    let n = 1 + Random.State.int rng 6 in
    let seqs = sequences rng ~n in
    let log = R.create ~n in
    let folded = Array.make n T.initial in
    let next = Array.make n 0 in
    let ok = ref true in
    let live =
      ref (List.filter (fun i -> seqs.(i) <> [||]) (List.init n Fun.id))
    in
    while !live <> [] do
      (* Interleave at random: any replica with steps left goes next. *)
      let i = List.nth !live (Random.State.int rng (List.length !live)) in
      let inv = seqs.(i).(next.(i)) in
      let state, expected = T.apply folded.(i) inv in
      let got = R.apply log i inv in
      folded.(i) <- state;
      next.(i) <- next.(i) + 1;
      if next.(i) = Array.length seqs.(i) then
        live := List.filter (( <> ) i) !live;
      if
        not
          (T.equal_response got expected && T.equal_state (R.state log i) state)
      then ok := false
    done;
    let all_equal =
      Array.for_all (fun s -> T.equal_state s folded.(0)) folded
    in
    !ok
    && Array.for_all2 T.equal_state (Array.init n (R.state log)) folded
    && R.converged log = all_equal

  let test =
    QCheck.Test.make ~count:300
      ~name:(T.name ^ ": shared log = per-replica replay")
      QCheck.(int_range 0 1_000_000)
      agrees
end

module Dq = Differential (Spec.Fifo_queue)
module Ds = Differential (Spec.Set_type)
module Dr = Differential (Spec.Register)
module Dt = Differential (Spec.Tree_type)
module Dk = Differential (Spec.Keyed.Make (Spec.Fifo_queue))

(* ---- Once per cluster ---- *)

(* The queue, counting every call of [apply] and of [respond]. *)
module Counting = struct
  include Spec.Fifo_queue

  let calls = ref 0
  let responds = ref 0

  let apply s inv =
    incr calls;
    Spec.Fifo_queue.apply s inv

  let respond s inv =
    incr responds;
    Spec.Fifo_queue.respond s inv
end

module Sem = Spec.Data_type.Semantics (Counting)

let model = Sim.Model.make ~n:4 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 3 1)
let offsets = [| Rat.zero; rat 3 2; rat (-3) 2; rat 1 2 |]

(* Sixteen operations in four rounds 20 apart, longer than any
   operation takes; in each round all four processes invoke one within
   3/2 of each other, so their mutators are in flight together. *)
let schedule =
  List.init 16 (fun k ->
      let inv =
        match k mod 4 with
        | 0 | 1 -> Spec.Fifo_queue.Enqueue k
        | 2 -> Spec.Fifo_queue.Dequeue
        | _ -> Spec.Fifo_queue.Peek
      in
      (k mod 4, rat ((40 * (k / 4)) + (k mod 4)) 2, inv))

let count kind =
  List.length
    (List.filter (fun (_, _, inv) -> Sem.kind_of inv = kind) schedule)

let run engine =
  List.iter
    (fun (proc, at, inv) -> Sim.Engine.schedule_invoke engine ~at ~proc inv)
    schedule;
  Counting.calls := 0;
  Counting.responds := 0;
  Sim.Engine.run engine;
  Alcotest.(check int)
    "every operation responded" 0
    (Sim.Trace.pending_count (Sim.Engine.trace engine))

(* Algorithm 1 calls [apply] once per mutator for the replicas of the
   whole cluster (n = 4 replica calls per mutator would be 3 per
   mutator more), and [respond], which builds no successor state, once
   per pure mutator to read its acknowledgement and once per pure
   accessor. *)
let test_wtlw_once_per_cluster () =
  let module W = Core.Wtlw.Make (Counting) in
  let cluster =
    W.create ~model ~x:(rat 2 1) ~offsets
      ~delay:(Sim.Net.random_model ~seed:5 model)
      ()
  in
  run cluster.engine;
  let pure_mutators = count Spec.Op_kind.Pure_mutator in
  let mixed = count Spec.Op_kind.Mixed in
  let accessors = count Spec.Op_kind.Pure_accessor in
  Alcotest.(check int) "apply calls" (pure_mutators + mixed) !Counting.calls;
  Alcotest.(check int)
    "respond calls" (pure_mutators + accessors) !Counting.responds;
  Alcotest.(check bool) "replicas converged" true (W.replicas_converged cluster)

(* The total-order baseline applies every operation at every replica:
   once per cluster. *)
let test_tob_once_per_cluster () =
  let module B = Core.Tob.Make (Counting) in
  let cluster =
    B.create ~model ~offsets ~delay:(Sim.Net.random_model ~seed:5 model) ()
  in
  run cluster.engine;
  Alcotest.(check int) "apply calls" (List.length schedule) !Counting.calls;
  Alcotest.(check int) "respond calls" 0 !Counting.responds;
  for i = 1 to model.n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d equals replica 0" i)
      true
      (Counting.equal_state (B.replica_state cluster i)
         (B.replica_state cluster 0))
  done

(* One replica runs [lag] enqueues ahead while the other stands at the
   initial state, then the other catches up.  The window doubles up to
   32 slots while the lagging replica still needs its oldest step, so
   32 steps behind it reuses every step; 33 behind, its first step is
   gone, it computes its own and leaves the chain for the rest. *)
let catch_up lag =
  let module R = Core.Replica.Make (Counting) in
  let log = R.create ~n:2 in
  Counting.calls := 0;
  for i = 0 to 1 do
    for k = 1 to lag do
      ignore (R.apply log i (Spec.Fifo_queue.Enqueue k))
    done
  done;
  Alcotest.(check bool) "replicas converged" true (R.converged log);
  !Counting.calls

let test_window () =
  Alcotest.(check int) "32 behind: applied once" 32 (catch_up 32);
  Alcotest.(check int) "33 behind: applied twice" 66 (catch_up 33)

(* The paper's verbatim accessor wait lets one replica apply two
   mutators in the opposite order: that replica leaves the shared chain
   and computes its own steps, so the run still ends diverged.  The
   repaired wait converges on the same schedule. *)
let test_paper_verbatim_diverges () =
  let _, converged = Scenario.Ablation.finding Core.Ablation.Paper_verbatim in
  Alcotest.(check bool) "paper-verbatim replicas diverge" false converged;
  let linearizable, converged = Scenario.Ablation.finding Core.Ablation.Paper in
  Alcotest.(check bool) "repaired run linearizable" true linearizable;
  Alcotest.(check bool) "repaired replicas converge" true converged

let () =
  Alcotest.run "replica"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ Dq.test; Ds.test; Dr.test; Dt.test; Dk.test ] );
      ( "cluster",
        [
          Alcotest.test_case "wtlw applies once per cluster" `Quick
            test_wtlw_once_per_cluster;
          Alcotest.test_case "tob applies once per cluster" `Quick
            test_tob_once_per_cluster;
          Alcotest.test_case "window covers 32 steps of lag" `Quick
            test_window;
          Alcotest.test_case "paper-verbatim still diverges" `Quick
            test_paper_verbatim_diverges;
        ] );
    ]
