(* Sequential-specification tests: each concrete data type's semantics,
   plus the derived sequence semantics (legality, replay, equivalence). *)

module Reg = Spec.Register
module Rmw = Spec.Rmw_register
module Q = Spec.Fifo_queue
module S = Spec.Stack_type
module Tree = Spec.Tree_type
module Set = Spec.Set_type
module Cnt = Spec.Counter_type
module Pq = Spec.Priority_queue
module Log = Spec.Log_type

(* --- register --- *)

let test_register () =
  let s0 = Reg.initial in
  Alcotest.(check bool) "initial read" true
    (snd (Reg.apply s0 Reg.Read) = Reg.Value 0);
  let s1, r1 = Reg.apply s0 (Reg.Write 7) in
  Alcotest.(check bool) "write acks" true (r1 = Reg.Ack);
  Alcotest.(check bool) "read after write" true
    (snd (Reg.apply s1 Reg.Read) = Reg.Value 7);
  let s2, _ = Reg.apply s1 (Reg.Write 9) in
  Alcotest.(check bool) "last write wins" true
    (snd (Reg.apply s2 Reg.Read) = Reg.Value 9)

module RegSem = Spec.Data_type.Semantics (Reg)

let test_register_sequences () =
  let instances, _ =
    RegSem.perform_seq [ Reg.Write 1; Reg.Read; Reg.Write 2; Reg.Read ]
  in
  Alcotest.(check bool) "legal replay" true (RegSem.legal instances);
  (* Corrupt a response: the sequence becomes illegal. *)
  let corrupted =
    List.map
      (fun (i : RegSem.instance) ->
        match i.inv with
        | Reg.Read -> { i with resp = Reg.Value 42 }
        | Reg.Write _ -> i)
      instances
  in
  Alcotest.(check bool) "corrupted responses illegal" false
    (RegSem.legal corrupted);
  (* Equivalence is state equality: write 1; write 2 == write 2. *)
  let a, _ = RegSem.perform_seq [ Reg.Write 1; Reg.Write 2 ] in
  let b, _ = RegSem.perform_seq [ Reg.Write 2 ] in
  let c, _ = RegSem.perform_seq [ Reg.Write 1 ] in
  Alcotest.(check bool) "overwrite equivalence" true (RegSem.equivalent a b);
  Alcotest.(check bool) "different writes differ" false (RegSem.equivalent a c);
  (* Prefix closure: every prefix of a legal sequence is legal. *)
  let rec prefixes = function
    | [] -> [ [] ]
    | x :: rest -> [] :: List.map (fun p -> x :: p) (prefixes rest)
  in
  Alcotest.(check bool) "prefix closure" true
    (List.for_all RegSem.legal (prefixes instances))

(* --- RMW register --- *)

let test_rmw () =
  let s0 = Rmw.initial in
  let s1, r1 = Rmw.apply s0 (Rmw.Rmw (Rmw.Fetch_and_add 5)) in
  Alcotest.(check bool) "faa returns old" true (r1 = Rmw.Value 0);
  Alcotest.(check bool) "faa adds" true (s1 = 5);
  let s2, r2 = Rmw.apply s1 (Rmw.Rmw (Rmw.Fetch_and_set 9)) in
  Alcotest.(check bool) "fas returns old" true (r2 = Rmw.Value 5);
  Alcotest.(check bool) "fas sets" true (s2 = 9);
  let s3, r3 = Rmw.apply s2 (Rmw.Rmw (Rmw.Compare_and_swap (9, 1))) in
  Alcotest.(check bool) "cas hit" true (r3 = Rmw.Value 9 && s3 = 1);
  let s4, r4 = Rmw.apply s3 (Rmw.Rmw (Rmw.Compare_and_swap (9, 7))) in
  Alcotest.(check bool) "cas miss leaves state" true (r4 = Rmw.Value 1 && s4 = 1)

(* --- queue --- *)

let test_queue () =
  let s0 = Q.initial in
  Alcotest.(check bool) "dequeue empty" true
    (snd (Q.apply s0 Q.Dequeue) = Q.Got None);
  Alcotest.(check bool) "peek empty" true (snd (Q.apply s0 Q.Peek) = Q.Got None);
  let s1, _ = Q.apply s0 (Q.Enqueue 1) in
  let s2, _ = Q.apply s1 (Q.Enqueue 2) in
  Alcotest.(check bool) "peek head" true (snd (Q.apply s2 Q.Peek) = Q.Got (Some 1));
  let s3, r3 = Q.apply s2 Q.Dequeue in
  Alcotest.(check bool) "FIFO order" true (r3 = Q.Got (Some 1));
  let _, r4 = Q.apply s3 Q.Dequeue in
  Alcotest.(check bool) "second out" true (r4 = Q.Got (Some 2));
  Alcotest.(check bool) "peek does not consume" true
    (snd (Q.apply s2 Q.Peek) = Q.Got (Some 1) && Q.to_list s2 = [ 1; 2 ])

(* --- stack --- *)

let test_stack () =
  let s0 = S.initial in
  Alcotest.(check bool) "pop empty" true (snd (S.apply s0 S.Pop) = S.Got None);
  let s1, _ = S.apply s0 (S.Push 1) in
  let s2, _ = S.apply s1 (S.Push 2) in
  Alcotest.(check bool) "peek top" true (snd (S.apply s2 S.Peek) = S.Got (Some 2));
  let s3, r3 = S.apply s2 S.Pop in
  Alcotest.(check bool) "LIFO order" true (r3 = S.Got (Some 2));
  let _, r4 = S.apply s3 S.Pop in
  Alcotest.(check bool) "bottom last" true (r4 = S.Got (Some 1))

(* --- rooted tree --- *)

let apply_seq apply s invs = List.fold_left (fun s i -> fst (apply s i)) s invs

let test_tree_insert_depth () =
  let t = Tree.initial in
  Alcotest.(check bool) "root depth 0" true
    (snd (Tree.apply t (Tree.Depth 0)) = Tree.Depth_is (Some 0));
  Alcotest.(check bool) "absent depth None" true
    (snd (Tree.apply t (Tree.Depth 3)) = Tree.Depth_is None);
  let t = apply_seq Tree.apply t [ Tree.Insert (1, 0); Tree.Insert (2, 1) ] in
  Alcotest.(check bool) "chain depths" true
    (snd (Tree.apply t (Tree.Depth 1)) = Tree.Depth_is (Some 1)
    && snd (Tree.apply t (Tree.Depth 2)) = Tree.Depth_is (Some 2))

let test_tree_insert_moves () =
  (* Inserting an existing node moves its whole subtree. *)
  let t =
    apply_seq Tree.apply Tree.initial
      [ Tree.Insert (1, 0); Tree.Insert (2, 1); Tree.Insert (3, 2) ]
  in
  let t' = fst (Tree.apply t (Tree.Insert (2, 0))) in
  Alcotest.(check bool) "2 moved under root" true
    (snd (Tree.apply t' (Tree.Depth 2)) = Tree.Depth_is (Some 1));
  Alcotest.(check bool) "3 moved along" true
    (snd (Tree.apply t' (Tree.Depth 3)) = Tree.Depth_is (Some 2))

let test_tree_insert_noops () =
  let t = apply_seq Tree.apply Tree.initial [ Tree.Insert (1, 0) ] in
  (* Absent parent, self-parent, cycle-creating move, root insert. *)
  let unchanged inv = Tree.equal_state t (fst (Tree.apply t inv)) in
  Alcotest.(check bool) "absent parent" true (unchanged (Tree.Insert (5, 9)));
  Alcotest.(check bool) "self parent" true (unchanged (Tree.Insert (1, 1)));
  Alcotest.(check bool) "root unmovable" true (unchanged (Tree.Insert (0, 1)));
  let chain =
    apply_seq Tree.apply Tree.initial [ Tree.Insert (1, 0); Tree.Insert (2, 1) ]
  in
  Alcotest.(check bool) "cycle rejected" true
    (Tree.equal_state chain (fst (Tree.apply chain (Tree.Insert (1, 2)))))

let test_tree_delete () =
  let t =
    apply_seq Tree.apply Tree.initial
      [ Tree.Insert (1, 0); Tree.Insert (2, 1); Tree.Insert (3, 0) ]
  in
  let t' = fst (Tree.apply t (Tree.Delete 1)) in
  Alcotest.(check bool) "subtree removed" true
    (snd (Tree.apply t' (Tree.Depth 1)) = Tree.Depth_is None
    && snd (Tree.apply t' (Tree.Depth 2)) = Tree.Depth_is None);
  Alcotest.(check bool) "sibling survives" true
    (snd (Tree.apply t' (Tree.Depth 3)) = Tree.Depth_is (Some 1));
  Alcotest.(check bool) "deletion register" true
    (snd (Tree.apply t' Tree.Last_removed) = Tree.Removed_was (Some 1));
  (* Deleting an absent node is a no-op, including the register. *)
  let t'' = fst (Tree.apply t' (Tree.Delete 9)) in
  Alcotest.(check bool) "absent delete noop" true (Tree.equal_state t' t'');
  Alcotest.(check bool) "root undeletable" true
    (Tree.equal_state t (fst (Tree.apply t (Tree.Delete 0))))

(* --- set --- *)

let test_set () =
  let s = apply_seq Set.apply Set.initial [ Set.Add 3; Set.Add 1; Set.Add 3 ] in
  Alcotest.(check (list int))
    "sorted canonical state" [ 1; 3 ] (Set.elements s);
  Alcotest.(check bool) "contains" true
    (snd (Set.apply s (Set.Contains 3)) = Set.Mem true
    && snd (Set.apply s (Set.Contains 2)) = Set.Mem false);
  let s1, r1 = Set.apply s Set.Extract_min in
  Alcotest.(check bool) "extract min returns 1" true (r1 = Set.Min (Some 1));
  Alcotest.(check (list int)) "extract removes" [ 3 ] (Set.elements s1);
  Alcotest.(check bool) "extract empty" true
    (snd (Set.apply Set.initial Set.Extract_min) = Set.Min None);
  let s2 = fst (Set.apply s (Set.Remove 3)) in
  Alcotest.(check (list int)) "remove" [ 1 ] (Set.elements s2)

(* States render as the sorted element list, byte for byte as when the
   state was that list: Wing-Gong interns states by this rendering. *)
let test_set_rendering () =
  let state invs = apply_seq Set.apply Set.initial invs in
  Alcotest.(check string) "empty" "[]" (Set.show_state Set.initial);
  Alcotest.(check string) "one" "[7]" (Set.show_state (state [ Set.Add 7 ]));
  Alcotest.(check string) "sorted" "[-2; 1; 3]"
    (Set.show_state (state [ Set.Add 3; Set.Add (-2); Set.Add 1; Set.Add 3 ]));
  Alcotest.(check string) "pp_state" "[1; 3]"
    (Format.asprintf "%a" Set.pp_state (state [ Set.Add 3; Set.Add 1 ]));
  Alcotest.(check string) "after remove and extract" "[5]"
    (Set.show_state
       (state
          [ Set.Add 5; Set.Add 2; Set.Add 9; Set.Remove 9; Set.Extract_min ]))

(* --- counter --- *)

let test_counter () =
  let s = apply_seq Cnt.apply Cnt.initial [ Cnt.Add 2; Cnt.Add 3 ] in
  Alcotest.(check bool) "adds accumulate" true (s = 5);
  Alcotest.(check bool) "read" true (snd (Cnt.apply s Cnt.Read) = Cnt.Value 5);
  let s', r = Cnt.apply s Cnt.Fetch_and_increment in
  Alcotest.(check bool) "fai returns old" true (r = Cnt.Value 5 && s' = 6)

(* --- priority queue --- *)

let test_priority_queue () =
  let s = apply_seq Pq.apply Pq.initial [ Pq.Insert 2; Pq.Insert 5; Pq.Insert 2 ] in
  Alcotest.(check bool) "descending multiset" true (s = [ 5; 2; 2 ]);
  Alcotest.(check bool) "find max" true
    (snd (Pq.apply s Pq.Find_max) = Pq.Max (Some 5));
  let s1, r1 = Pq.apply s Pq.Extract_max in
  Alcotest.(check bool) "extract max" true (r1 = Pq.Max (Some 5) && s1 = [ 2; 2 ]);
  Alcotest.(check bool) "duplicates kept" true
    (snd (Pq.apply s1 Pq.Extract_max) = Pq.Max (Some 2));
  Alcotest.(check bool) "empty extract" true
    (snd (Pq.apply Pq.initial Pq.Extract_max) = Pq.Max None);
  (* Insertion order does not matter: commutativity. *)
  let a = apply_seq Pq.apply Pq.initial [ Pq.Insert 1; Pq.Insert 9; Pq.Insert 4 ] in
  let b = apply_seq Pq.apply Pq.initial [ Pq.Insert 9; Pq.Insert 4; Pq.Insert 1 ] in
  Alcotest.(check bool) "insert commutes" true (Pq.equal_state a b)

(* --- log --- *)

let test_log () =
  let s = apply_seq Log.apply Log.initial [ Log.Append 1; Log.Append 2; Log.Append 3 ] in
  Alcotest.(check bool) "last is newest" true
    (snd (Log.apply s Log.Last) = Log.Entry (Some 3));
  Alcotest.(check bool) "length" true (snd (Log.apply s Log.Length) = Log.Count 3);
  let s1, r1 = Log.apply s Log.Trim in
  Alcotest.(check bool) "trim removes oldest" true
    (r1 = Log.Entry (Some 1) && snd (Log.apply s1 Log.Length) = Log.Count 2);
  Alcotest.(check bool) "trim empty" true
    (snd (Log.apply Log.initial Log.Trim) = Log.Entry None);
  (* Append order is fully observable: permutations differ. *)
  let a = apply_seq Log.apply Log.initial [ Log.Append 1; Log.Append 2 ] in
  let b = apply_seq Log.apply Log.initial [ Log.Append 2; Log.Append 1 ] in
  Alcotest.(check bool) "append order observable" false (Log.equal_state a b)

(* --- generic Semantics checks over every type --- *)

let completeness_and_determinism (module T : Spec.Data_type.S) =
  (* apply is total and deterministic by construction; spot-check that
     repeated application from equal states gives equal outcomes. *)
  let module Sem = Spec.Data_type.Semantics (T) in
  let rng1 = Random.State.make [| 11 |] and rng2 = Random.State.make [| 11 |] in
  let invs1 = List.init 30 (fun _ -> T.gen_invocation rng1) in
  let invs2 = List.init 30 (fun _ -> T.gen_invocation rng2) in
  let i1, s1 = Sem.perform_seq invs1 in
  let i2, s2 = Sem.perform_seq invs2 in
  T.equal_state s1 s2
  && List.for_all2 Sem.equal_instance i1 i2
  && Sem.legal i1

let all_types_deterministic () =
  List.iter
    (fun (name, result) ->
      Alcotest.(check bool) (name ^ " deterministic & complete") true result)
    [
      ("register", completeness_and_determinism (module Reg));
      ("rmw-register", completeness_and_determinism (module Rmw));
      ("fifo-queue", completeness_and_determinism (module Q));
      ("stack", completeness_and_determinism (module S));
      ("rooted-tree", completeness_and_determinism (module Tree));
      ("int-set", completeness_and_determinism (module Set));
      ("counter", completeness_and_determinism (module Cnt));
      ("priority-queue", completeness_and_determinism (module Pq));
      ("log", completeness_and_determinism (module Log));
    ]

let sample_invocations_belong () =
  let check_type (module T : Spec.Data_type.S) =
    List.for_all
      (fun (op, _) ->
        let samples = T.sample_invocations op in
        samples <> [] && List.for_all (fun inv -> T.op_of inv = op) samples)
      T.operations
  in
  List.iter
    (fun (name, r) -> Alcotest.(check bool) (name ^ " samples consistent") true r)
    [
      ("register", check_type (module Reg));
      ("rmw-register", check_type (module Rmw));
      ("fifo-queue", check_type (module Q));
      ("stack", check_type (module S));
      ("rooted-tree", check_type (module Tree));
      ("int-set", check_type (module Set));
      ("counter", check_type (module Cnt));
      ("priority-queue", check_type (module Pq));
      ("log", check_type (module Log));
    ]

(* qcheck: random queue invocation sequences keep FIFO discipline — the
   dequeued values are exactly a prefix of the enqueued ones. *)
let prop_queue_fifo =
  QCheck.Test.make ~name:"queue: dequeues return enqueues in order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_range 0 5))
    (fun script ->
      (* Interpret ints: 0-3 enqueue that value, 4 dequeue, 5 peek. *)
      let invs =
        List.map
          (fun k ->
            if k = 4 then Q.Dequeue else if k = 5 then Q.Peek else Q.Enqueue k)
          script
      in
      let module QSem = Spec.Data_type.Semantics (Q) in
      let instances, _ = QSem.perform_seq invs in
      let enqueued =
        List.filter_map
          (fun (i : QSem.instance) ->
            match i.inv with Q.Enqueue v -> Some v | _ -> None)
          instances
      in
      let dequeued =
        List.filter_map
          (fun (i : QSem.instance) ->
            match (i.inv, i.resp) with
            | Q.Dequeue, Q.Got (Some v) -> Some v
            | _ -> None)
          instances
      in
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      is_prefix dequeued enqueued)

(* qcheck: the keyed family's flat chain against a reference model, a
   map from key to sub-state in which a missing key is in its initial
   state.  Over random operation scripts on a few keys, [apply] returns
   the model's responses, and [equal_state] and [show_state] agree with
   the model's, which ignores sub-states equal to the initial one.
   Small keys and values make equal and emptied states common. *)
module Keyed_model (T : Spec.Data_type.S) = struct
  module K = Spec.Keyed.Make (T)
  module M = Map.Make (Int)

  let visible m = M.filter (fun _ s -> not (T.equal_state s T.initial)) m
  let equal m1 m2 = M.equal T.equal_state (visible m1) (visible m2)

  let show m =
    "{"
    ^ String.concat "; "
        (List.map
           (fun (k, s) -> Printf.sprintf "%d:%s" k (T.show_state s))
           (M.bindings (visible m)))
    ^ "}"

  (* Run [invs] on both; [None] once a response differs. *)
  let run invs =
    List.fold_left
      (fun acc ({ K.key; inv } as i) ->
        Option.bind acc (fun (st, m) ->
            let st', r = K.apply st i in
            let sub = Option.value (M.find_opt key m) ~default:T.initial in
            let sub', r' = T.apply sub inv in
            if T.equal_response r r' then Some (st', M.add key sub' m)
            else None))
      (Some (K.initial, M.empty))
      invs

  let prop ~decode =
    QCheck.Test.make
      ~name:(K.name ^ ": flat chain agrees with a map of sub-states")
      ~count:300
      (let script =
         QCheck.(
           list_of_size (QCheck.Gen.int_range 0 30)
             (pair (int_range 0 3) (int_range 0 5)))
       in
       QCheck.pair script script)
      (fun (a, b) ->
        let invs = List.map (fun (key, c) -> { K.key; inv = decode c }) in
        match (run (invs a), run (invs b)) with
        | Some (st1, m1), Some (st2, m2) ->
            K.show_state st1 = show m1
            && K.show_state st2 = show m2
            && K.equal_state st1 st2 = equal m1 m2
            && K.equal_state st1 st1
        | _ -> false)
end

let prop_keyed_queue =
  let module KM = Keyed_model (Q) in
  KM.prop ~decode:(fun c ->
      if c < 2 then Q.Enqueue c else if c < 5 then Q.Dequeue else Q.Peek)

let prop_keyed_register =
  let module KM = Keyed_model (Reg) in
  KM.prop ~decode:(fun c -> if c < 3 then Reg.Write (c mod 2) else Reg.Read)

(* qcheck: tree invariant — every stored node has a well-defined
   positive depth (parents exist, no cycles), under any sequence. *)
let prop_tree_well_formed =
  QCheck.Test.make ~name:"tree: parents exist and acyclic" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let invs = List.init 50 (fun _ -> Tree.gen_invocation rng) in
      let module TSem = Spec.Data_type.Semantics (Tree) in
      let _, state = TSem.perform_seq invs in
      let nodes = List.map fst state.parents in
      List.for_all
        (fun node ->
          match snd (Tree.apply state (Tree.Depth node)) with
          | Tree.Depth_is (Some depth) -> depth >= 1
          | _ -> false)
        nodes)

let prop_set_sorted =
  QCheck.Test.make ~name:"set: state stays strictly sorted" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let invs = List.init 60 (fun _ -> Set.gen_invocation rng) in
      let module SSem = Spec.Data_type.Semantics (Set) in
      let _, state = SSem.perform_seq invs in
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> a < b && sorted rest
      in
      sorted (Set.elements state))

let () =
  Alcotest.run "spec_types"
    [
      ( "types",
        [
          Alcotest.test_case "register" `Quick test_register;
          Alcotest.test_case "register sequences" `Quick test_register_sequences;
          Alcotest.test_case "rmw register" `Quick test_rmw;
          Alcotest.test_case "queue" `Quick test_queue;
          Alcotest.test_case "stack" `Quick test_stack;
          Alcotest.test_case "tree insert/depth" `Quick test_tree_insert_depth;
          Alcotest.test_case "tree insert moves" `Quick test_tree_insert_moves;
          Alcotest.test_case "tree insert noops" `Quick test_tree_insert_noops;
          Alcotest.test_case "tree delete" `Quick test_tree_delete;
          Alcotest.test_case "set" `Quick test_set;
          Alcotest.test_case "set rendering" `Quick test_set_rendering;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "priority queue" `Quick test_priority_queue;
          Alcotest.test_case "log" `Quick test_log;
        ] );
      ( "framework",
        [
          Alcotest.test_case "determinism & completeness" `Quick
            all_types_deterministic;
          Alcotest.test_case "sample invocations" `Quick
            sample_invocations_belong;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_queue_fifo;
            prop_tree_well_formed;
            prop_set_sorted;
            prop_keyed_queue;
            prop_keyed_register;
          ] );
    ]
