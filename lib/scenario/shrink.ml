(* Greedy deterministic counterexample shrinking.

   Starting from a failing scenario, repeatedly try smaller candidates
   in a fixed order and jump to the first one that still fails, until
   no candidate fails (a local minimum).  Candidate moves, in order:

   - drop invocations: contiguous chunks (halving sizes, then singles)
     of an explicit schedule; halve/decrement closed-loop and generated
     operation counts;
   - shrink a delay matrix toward the uniform point [d - u/2], one
     entry at a time;
   - remove fault-plan entries, one spec at a time;
   - shrink the seed toward 0 (0 first, then halving).

   Every move strictly decreases the lexicographic measure
   ([Types.size], seed), so shrinking terminates; the enumeration is
   pure and ordered, so for a fixed scenario the result is a function
   of nothing but the scenario (same seed => byte-identical shrunk
   output), and the accepted result is itself a fixpoint: re-shrinking
   accepts no further candidate and returns it unchanged. *)

open Types

type outcome = {
  scenario : t;  (** the shrunk scenario — still failing *)
  exec : Exec.outcome;  (** its run, the minimized counterexample *)
  initial_size : int;
  final_size : int;
  steps : int;  (** accepted shrink moves *)
  attempts : int;  (** candidate runs tried *)
}

(* ------------------------------------------------------------------ *)
(* Candidate enumeration                                               *)

(* Chunk sizes k/2, k/4, ..., 1 (always including 1). *)
let chunk_sizes k =
  (* descending: k/2, k/4, ..., 1 *)
  let rec go c acc = if c < 1 then List.rev acc else go (c / 2) (c :: acc) in
  go (max 1 (k / 2)) []

let drop_chunk l start len =
  List.filteri (fun i _ -> i < start || i >= start + len) l

let entry_candidates l =
  let k = List.length l in
  if k = 0 then Seq.empty
  else
    List.to_seq (chunk_sizes k)
    |> Seq.concat_map (fun c ->
           Seq.init ((k + c - 1) / c) (fun w -> drop_chunk l (w * c) c))

let int_candidates v =
  (* halve, then decrement — both strictly smaller *)
  List.to_seq (List.sort_uniq compare [ v / 2; v - 1 ])
  |> Seq.filter (fun v' -> v' >= 0 && v' < v)

let workload_candidates (s : t) : t Seq.t =
  match s.workload with
  | Explicit l ->
      Seq.map (fun l' -> { s with workload = Explicit l' }) (entry_candidates l)
  | Closed_loop ({ per_proc; _ } as c) ->
      int_candidates per_proc
      |> Seq.filter (fun p -> p >= 1)
      |> Seq.map (fun per_proc ->
             { s with workload = Closed_loop { c with per_proc } })
  | Generated ({ ops; _ } as g) ->
      int_candidates ops
      |> Seq.map (fun ops -> { s with workload = Generated { g with ops } })

let matrix_candidates (s : t) : t Seq.t =
  match s.delays with
  | Random_delays | Max_delays | Min_delays -> Seq.empty
  | Matrix m ->
      let mid = uniform_point s.model in
      let n = Array.length m in
      Seq.init (n * n) (fun idx -> (idx / n, idx mod n))
      |> Seq.filter_map (fun (i, j) ->
             if Rat.equal m.(i).(j) mid then None
             else
               let m' = Array.map Array.copy m in
               m'.(i).(j) <- mid;
               Some { s with delays = Matrix m' })

let fault_candidates (s : t) : t Seq.t =
  let { Sim.Fault.seed; specs } = s.faults in
  Seq.init (List.length specs) (fun i ->
      let specs = List.filteri (fun j _ -> j <> i) specs in
      { s with faults = { Sim.Fault.seed; specs } })

let seed_candidates (s : t) : t Seq.t =
  if s.seed = 0 then Seq.empty
  else
    List.to_seq (List.sort_uniq compare [ 0; s.seed / 2 ])
    |> Seq.filter (fun v -> v <> s.seed)
    |> Seq.map (fun seed -> { s with seed })

let candidates (s : t) : t Seq.t =
  Seq.concat
    (List.to_seq
       [
         workload_candidates s;
         matrix_candidates s;
         fault_candidates s;
         seed_candidates s;
       ])

(* ------------------------------------------------------------------ *)
(* The greedy loop                                                     *)

let shrink ?(max_attempts = 2000) (s0 : t) : (outcome, string) result =
  let o0 = Packed_type.run s0 in
  if Exec.passes o0 then
    Error
      (Printf.sprintf "scenario %s passes its expectation; nothing to shrink"
         s0.name)
  else begin
    let attempts = ref 0 in
    let rec first_failing seq =
      match seq () with
      | Seq.Nil -> None
      | Seq.Cons (c, rest) ->
          if !attempts >= max_attempts then None
          else begin
            incr attempts;
            let o = Packed_type.run c in
            if Exec.passes o then first_failing rest else Some (c, o)
          end
    in
    let rec loop s o steps =
      match first_failing (candidates s) with
      | None -> (s, o, steps)
      | Some (c, oc) -> loop c oc (steps + 1)
    in
    let scenario, exec, steps = loop s0 o0 0 in
    Ok
      {
        scenario;
        exec;
        initial_size = size s0;
        final_size = size scenario;
        steps;
        attempts = !attempts;
      }
  end

let pp_outcome ppf (r : outcome) =
  Format.fprintf ppf
    "@[<v>shrunk %s: size %d -> %d in %d steps (%d candidate runs)@,%a@]"
    r.scenario.name r.initial_size r.final_size r.steps r.attempts
    Exec.pp_outcome r.exec
