(** Pass 1 — spec_lint: certify that a [Spec.Data_type.S] honours the
    obligations §2.1 places on sequential specifications, by bounded
    exhaustive exploration of its reachable state space.

    The framework makes prefix closure, completeness and determinism
    hold {e by construction} only if [apply] really is a total
    deterministic function and states really are canonical.  A spec
    that smuggles mutable state into [apply], raises on a legal
    invocation, or renders distinct states identically breaks every
    downstream consumer silently: a non-canonical [show_state] poisons
    the Wing–Gong memo table in [Lin.Checker] (two live search nodes
    collapse into one), and a non-deterministic [apply] invalidates the
    classification searches and Algorithm 1's [execute_Locally].  This
    pass finds such specs before any simulation runs.

    Checks (rule ids):
    - [spec.duplicate-op] — an operation declared twice;
    - [spec.samples-raise] / [spec.samples-empty] — [sample_invocations]
      raises on, or is empty for, a declared operation;
    - [spec.sample-op-mismatch] — a sample's [op_of] disagrees with the
      operation it was requested for;
    - [spec.gen-undeclared] — [gen_invocation] produces an invocation of
      an undeclared operation;
    - [spec.apply-raises] — [apply] raises on a reachable state
      (totality on legal prefixes);
    - [spec.determinism] — two applications of the same invocation in
      the same state disagree on response or successor state;
    - [spec.equal-state-irreflexive] — [equal_state s s] is false for a
      reachable state;
    - [spec.show-state-collision] — two reachable, [equal_state]-distinct
      states render identically (memo-table poison);
    - [spec.show-state-unstable] — two [equal_state]-equal states render
      differently (warning: memo misses, never unsoundness);
    - [spec.prefix-closure] — replaying a materialized legal sequence
      fails on some prefix (broken [equal_response]/hidden state). *)

type config = {
  max_states : int;  (** cap on distinct explored states *)
  max_depth : int;  (** BFS depth cap *)
  gen_trials : int;  (** random invocations drawn from [gen_invocation] *)
  prefix_paths : int;  (** explored paths replayed for prefix closure *)
  seed : int;
}

let config =
  { max_states = 150; max_depth = 4; gen_trials = 50; prefix_paths = 20;
    seed = 0xA0D17 }

module Make (T : Spec.Data_type.S) = struct
  module Sem = Spec.Data_type.Semantics (T)

  let subject op = T.name ^ "/" ^ op
  let show_inv inv = Format.asprintf "%a" T.pp_invocation inv

  let show_path path =
    "[" ^ String.concat "; " (List.map show_inv path) ^ "]"

  (* Samples of one operation, never raising: errors surface as
     findings, not crashes of the analyzer itself. *)
  let samples_of op =
    try Ok (T.sample_invocations op) with exn -> Error (Printexc.to_string exn)

  let declared_ops () = List.map fst T.operations

  let declaration_findings () =
    let seen = Hashtbl.create 7 in
    List.concat_map
      (fun op ->
        let dup =
          if Hashtbl.mem seen op then
            [
              Diagnostic.error ~rule:"spec.duplicate-op" ~subject:(subject op)
                "operation declared more than once in [operations]";
            ]
          else (
            Hashtbl.add seen op ();
            [])
        in
        let samples =
          match samples_of op with
          | Error exn ->
              [
                Diagnostic.error ~rule:"spec.samples-raise"
                  ~subject:(subject op)
                  (Printf.sprintf "sample_invocations raised: %s" exn);
              ]
          | Ok [] ->
              [
                Diagnostic.error ~rule:"spec.samples-empty"
                  ~subject:(subject op)
                  "no sample invocations: the classification searches \
                   cannot produce witnesses for this operation";
              ]
          | Ok invs ->
              List.filter_map
                (fun inv ->
                  let actual = T.op_of inv in
                  if String.equal actual op then None
                  else
                    Some
                      (Diagnostic.error ~rule:"spec.sample-op-mismatch"
                         ~subject:(subject op)
                         ~witness:(show_inv inv)
                         (Printf.sprintf
                            "sample invocation reports op_of = %S" actual)))
                invs
        in
        dup @ samples)
      (declared_ops ())

  let gen_findings config =
    let rng = Random.State.make [| config.seed |] in
    let declared = declared_ops () in
    let rec loop i acc =
      if i >= config.gen_trials then List.rev acc
      else
        match T.gen_invocation rng with
        | exception exn ->
            List.rev
              (Diagnostic.error ~rule:"spec.gen-raises" ~subject:T.name
                 (Printf.sprintf "gen_invocation raised: %s"
                    (Printexc.to_string exn))
              :: acc)
        | inv ->
            let op = T.op_of inv in
            let acc =
              if List.mem op declared then acc
              else
                Diagnostic.error ~rule:"spec.gen-undeclared"
                  ~subject:(subject op) ~witness:(show_inv inv)
                  "gen_invocation produced an invocation of an undeclared \
                   operation"
                :: acc
            in
            loop (i + 1) acc
    in
    (* Deduplicate by (rule, subject): one finding per undeclared op. *)
    let seen = Hashtbl.create 7 in
    List.filter
      (fun (d : Diagnostic.t) ->
        let k = (d.rule, d.subject) in
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.add seen k ();
          true))
      (loop 0 [])

  (* The invocation pool driving exploration: every declared sample. *)
  let pool () =
    List.concat_map
      (fun op -> match samples_of op with Ok invs -> invs | Error _ -> [])
      (declared_ops ())

  (* Bounded BFS over reachable states.  Each visited state keeps the
     invocation path that first reached it, for witness reporting.
     Distinctness is decided by [equal_state] (linear scan — the state
     cap keeps this quadratic in a small constant). *)
  let explore config =
    let findings = ref [] in
    let add d = findings := d :: !findings in
    let pool = pool () in
    let visited : (T.state * T.invocation list) list ref = ref [] in
    let find_visited s =
      List.find_opt (fun (s', _) -> T.equal_state s s') !visited
    in
    let queue = Queue.create () in
    Queue.add (T.initial, [], 0) queue;
    visited := [ (T.initial, []) ];
    while not (Queue.is_empty queue) do
      let state, path, depth = Queue.pop queue in
      if not (T.equal_state state state) then
        add
          (Diagnostic.error ~rule:"spec.equal-state-irreflexive"
             ~subject:T.name
             ~witness:(show_path (List.rev path))
             "equal_state s s is false for a reachable state");
      if depth < config.max_depth then
        List.iter
          (fun inv ->
            match T.apply state inv with
            | exception exn ->
                add
                  (Diagnostic.error ~rule:"spec.apply-raises"
                     ~subject:(subject (T.op_of inv))
                     ~witness:
                       (Printf.sprintf "%s after %s" (show_inv inv)
                          (show_path (List.rev path)))
                     (Printf.sprintf
                        "apply raised on a reachable state: %s \
                         (completeness of L(T) violated)"
                        (Printexc.to_string exn)))
            | state1, resp1 -> (
                (* Determinism: the same (state, invocation) must give
                   the same response and successor again. *)
                (match T.apply state inv with
                | exception _ -> () (* already reported above *)
                | state2, resp2 ->
                    if
                      (not (T.equal_response resp1 resp2))
                      || not (T.equal_state state1 state2)
                    then
                      add
                        (Diagnostic.error ~rule:"spec.determinism"
                           ~subject:(subject (T.op_of inv))
                           ~witness:
                             (Format.asprintf
                                "%s after %s: responses %a / %a" (show_inv inv)
                                (show_path (List.rev path)) T.pp_response resp1
                                T.pp_response resp2)
                           "apply is not deterministic: two applications \
                            of the same invocation in the same state \
                            disagree"));
                match find_visited state1 with
                | Some (prior, _) ->
                    (* Same state by [equal_state]: renderings must
                       agree, else the memo table misses. *)
                    if
                      not
                        (String.equal (T.show_state prior)
                           (T.show_state state1))
                    then
                      add
                        (Diagnostic.warning ~rule:"spec.show-state-unstable"
                           ~subject:T.name
                           ~witness:
                             (Printf.sprintf "%S vs %S" (T.show_state prior)
                                (T.show_state state1))
                           "equal states render differently: the \
                            linearizability memo table will miss (slow, \
                            not unsound)")
                | None ->
                    if List.length !visited < config.max_states then begin
                      visited := (state1, inv :: path) :: !visited;
                      Queue.add (state1, inv :: path, depth + 1) queue
                    end))
          pool
    done;
    (!visited, List.rev !findings)

  (* Pairwise collision scan over the distinct explored states: a
     collision means the Wing-Gong memo key cannot tell two genuinely
     different search nodes apart — linearizable histories can be
     rejected (or violations masked) silently. *)
  let collision_findings visited =
    let arr = Array.of_list visited in
    let tbl : (string, int) Hashtbl.t = Hashtbl.create 97 in
    let findings = ref [] in
    Array.iteri
      (fun i (s, path) ->
        let rendered = T.show_state s in
        match Hashtbl.find_opt tbl rendered with
        | Some j ->
            let s', path' = arr.(j) in
            if not (T.equal_state s s') then
              findings :=
                Diagnostic.error ~rule:"spec.show-state-collision"
                  ~subject:T.name
                  ~witness:
                    (Printf.sprintf
                       "states reached by %s and %s both render as %S"
                       (show_path (List.rev path'))
                       (show_path (List.rev path))
                       rendered)
                  "distinct states render identically: show_state is not \
                   canonical and poisons the linearizability checker's \
                   memo table"
                :: !findings
        | None -> Hashtbl.add tbl rendered i)
      arr;
    List.rev !findings

  (* Prefix closure, via the derived semantics: materializing a path
     into instances and replaying it must succeed on every prefix.
     This fails only when [equal_response] or hidden state breaks the
     state-machine guarantee — exactly what this pass exists to
     catch. *)
  let prefix_findings config visited =
    let paths =
      List.filteri (fun i _ -> i < config.prefix_paths) (List.rev visited)
      |> List.map (fun (_, path) -> List.rev path)
    in
    List.filter_map
      (fun path ->
        match Sem.perform_seq path with
        | exception _ -> None (* apply-raises already reported *)
        | instances, _ ->
            let n = List.length instances in
            let prefix k = List.filteri (fun i _ -> i < k) instances in
            if List.init (n + 1) prefix |> List.for_all Sem.legal then None
            else
              Some
                (Diagnostic.error ~rule:"spec.prefix-closure" ~subject:T.name
                   ~witness:(show_path path)
                   "a materialized legal sequence has an illegal prefix \
                    under replay (equal_response or hidden state broken)"))
      paths

  (* One finding per (rule, subject): the exploration revisits the same
     defect once per reachable state, and a linter should report each
     broken obligation once, with its first witness. *)
  let dedup findings =
    let seen = Hashtbl.create 17 in
    List.filter
      (fun (d : Diagnostic.t) ->
        let k = (d.rule, d.subject) in
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.add seen k ();
          true))
      findings

  let run () =
    let decl = declaration_findings () in
    let gen = gen_findings config in
    let visited, dyn = explore config in
    let collisions = collision_findings visited in
    let prefix = prefix_findings config visited in
    let summary =
      Diagnostic.info ~rule:"spec.explored" ~subject:T.name
        (Printf.sprintf
           "explored %d distinct states to depth %d over %d sample \
            invocations"
           (List.length visited) config.max_depth
           (List.length (pool ())))
    in
    dedup (decl @ gen @ dyn @ collisions @ prefix) @ [ summary ]
end
