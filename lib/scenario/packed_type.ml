(* First-class packing of the bundled data types, each with its
   executor.

   [Spec.Data_type.S] bundles the sequential specification with its
   generators ([gen_invocation], [sample_invocations]), so a packed
   module is everything the sweep engine, the CLI and the bench need to
   run a workload.  [Exec.Run] is applied once per type, here, while
   the module initialises: every run of that type — a sweep cell, a
   scenario, a fault-matrix leg — dispatches to the same instance
   instead of re-applying the functor stack ([Runtime.Make],
   [Monitor.Make], [Lin.Checker.Make], the three algorithms) per run.

   Sharing an instance across domains is safe because it holds no
   mutable state: the functor bodies only define types and functions,
   and everything a run mutates (engine, trace, replicas, RNG, checker
   tables) is allocated inside the call.  The instances exist before
   any pool starts, so no domain ever builds one. *)

module type RUNNER = sig
  module T : Spec.Data_type.S
  include module type of Exec.Run (T)
end

type t = { key : string; runner : (module RUNNER) }

let pack key (module T : Spec.Data_type.S) =
  {
    key;
    runner =
      (module struct
        module T = T
        include Exec.Run (T)
      end);
  }

let key t = t.key
let runner t = t.runner

let modl t =
  let (module E : RUNNER) = t.runner in
  (module E.T : Spec.Data_type.S)

let spec_name t =
  let (module E : RUNNER) = t.runner in
  E.T.name

(* The product type exercises multi-object locality (paper §2.3)
   through the single-object machinery. *)
module Product_queue_register = Spec.Product.Make (Spec.Fifo_queue) (Spec.Register)

let all =
  [
    pack "register" (module Spec.Register);
    pack "rmw-register" (module Spec.Rmw_register);
    pack "queue" (module Spec.Fifo_queue);
    pack "stack" (module Spec.Stack_type);
    pack "tree" (module Spec.Tree_type);
    pack "set" (module Spec.Set_type);
    pack "counter" (module Spec.Counter_type);
    pack "priority-queue" (module Spec.Priority_queue);
    pack "log" (module Spec.Log_type);
    pack "product" (module Product_queue_register);
  ]

let keys = List.map key all
let find k = List.find_opt (fun t -> t.key = k) all

let run (s : Types.t) =
  match find s.dt with
  | None ->
      Exec.aborted s ~wall_s:0. (Printf.sprintf "unknown data type %S" s.dt)
  | Some t ->
      let (module E : RUNNER) = t.runner in
      E.run s
