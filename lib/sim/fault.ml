type spec =
  | Drop of { p : float; edges : edges }
  | Duplicate of { p : float; edges : edges }
  | Spike of { p : float; edges : edges; margin : Rat.t; below : bool }
  | Crash of { proc : int; at : Rat.t }
  | Skew of { proc : int; offset : Rat.t }

and edges = All | Edges of (int * int) list

type plan = { seed : int; specs : spec list }

let none = { seed = 0; specs = [] }
let is_none plan = plan.specs = []
let plan ?(seed = 0) specs = { seed; specs }

let check_p p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Fault: probability must lie in [0, 1]"

let drops ?(edges = All) p =
  check_p p;
  Drop { p; edges }

let duplicates ?(edges = All) p =
  check_p p;
  Duplicate { p; edges }

let spikes ?(edges = All) ?(below = false) ~margin p =
  check_p p;
  if Rat.sign margin <= 0 then
    invalid_arg "Fault.spikes: margin must be positive";
  Spike { p; edges; margin; below }

let crash ~proc ~at = Crash { proc; at }
let skew ~proc ~offset = Skew { proc; offset }

type kind =
  | Dropped of { src : int; dst : int; seq : int }
  | Duplicated of { src : int; dst : int; seq : int }
  | Spiked of { src : int; dst : int; seq : int; delay : Rat.t }
  | Crashed of { proc : int; at : Rat.t }
  | Skewed of { proc : int; offset : Rat.t }

let pp_kind ppf = function
  | Dropped { src; dst; seq } ->
      Format.fprintf ppf "dropped %d->%d #%d" src dst seq
  | Duplicated { src; dst; seq } ->
      Format.fprintf ppf "duplicated %d->%d #%d" src dst seq
  | Spiked { src; dst; seq; delay } ->
      Format.fprintf ppf "delay spike %d->%d #%d (%a)" src dst seq Rat.pp delay
  | Crashed { proc; at } -> Format.fprintf ppf "crashed p%d@%a" proc Rat.pp at
  | Skewed { proc; offset } ->
      Format.fprintf ppf "clock skew p%d by %a" proc Rat.pp offset

let on_edge edges ~src ~dst =
  match edges with All -> true | Edges list -> List.mem (src, dst) list

let crash_time plan ~proc =
  List.fold_left
    (fun acc spec ->
      match spec with
      | Crash { proc = p; at } when p = proc -> (
          match acc with
          | None -> Some at
          | Some earlier -> Some (Rat.min earlier at))
      | _ -> acc)
    None plan.specs

let skew_offsets plan ~n =
  let offsets = Array.make n Rat.zero in
  List.iter
    (function
      | Skew { proc; offset } when proc >= 0 && proc < n ->
          offsets.(proc) <- Rat.add offsets.(proc) offset
      | _ -> ())
    plan.specs;
  offsets

(* Spread of the perturbations, always counting 0 (unperturbed
   processes exist in any model with n >= 2 unless every process is
   listed; including 0 errs on the safe, wider side). *)
let extra_skew plan =
  let lo = ref Rat.zero and hi = ref Rat.zero in
  List.iter
    (function
      | Skew { offset; _ } ->
          if Rat.lt offset !lo then lo := offset;
          if Rat.gt offset !hi then hi := offset
      | _ -> ())
    plan.specs;
  Rat.sub !hi !lo

let max_spike plan =
  List.fold_left
    (fun acc spec ->
      match spec with
      | Spike { margin; below = false; _ } -> Rat.max acc margin
      | _ -> acc)
    Rat.zero plan.specs

let describe plan =
  let edge_str = function
    | All -> "all"
    | Edges list ->
        String.concat ","
          (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) list)
  in
  let spec_str = function
    | Drop { p; edges } -> Printf.sprintf "drop(%g,%s)" p (edge_str edges)
    | Duplicate { p; edges } -> Printf.sprintf "dup(%g,%s)" p (edge_str edges)
    | Spike { p; edges; margin; below } ->
        Printf.sprintf "spike(%g,%s,%s%s)" p (edge_str edges)
          (if below then "-" else "+")
          (Rat.to_string margin)
    | Crash { proc; at } -> Printf.sprintf "crash(p%d@%s)" proc (Rat.to_string at)
    | Skew { proc; offset } ->
        Printf.sprintf "skew(p%d,%s)" proc (Rat.to_string offset)
  in
  String.concat " "
    (Printf.sprintf "seed=%d" plan.seed :: List.map spec_str plan.specs)

type injector = { spec : plan; rng : Random.State.t }

let instantiate plan =
  { spec = plan; rng = Random.State.make [| plan.seed; 0x5eed |] }

let roll t p = p > 0. && Random.State.float t.rng 1.0 < p

(* Every probabilistic spec is rolled on every transmission, in plan
   order, so the RNG stream consumed per send depends only on the plan
   — never on which faults happened to trigger.  Determinism therefore
   survives plan-behavioural changes downstream (e.g. a retransmission
   rolling fresh faults). *)
let on_send t ~src ~dst ~seq ~delay =
  let dropped = ref false in
  let duplicated = ref false in
  let spiked = ref None in
  List.iter
    (fun spec ->
      match spec with
      | Drop { p; edges } ->
          let hit = roll t p in
          if hit && on_edge edges ~src ~dst then dropped := true
      | Duplicate { p; edges } ->
          let hit = roll t p in
          if hit && on_edge edges ~src ~dst then duplicated := true
      | Spike { p; edges; margin; below } ->
          let hit = roll t p in
          if hit && on_edge edges ~src ~dst && !spiked = None then
            (* Relative to the sampled delay, not the model: the same
               plan must stay meaningful when the run is judged against
               an inflated recovery model. *)
            spiked :=
              Some
                (if below then Rat.max Rat.zero (Rat.sub delay margin)
                 else Rat.add delay margin)
      | Crash _ | Skew _ -> ())
    t.spec.specs;
  if !dropped then ([], [ Dropped { src; dst; seq } ])
  else
    let delay, spike_faults =
      match !spiked with
      | None -> (delay, [])
      | Some delay' -> (delay', [ Spiked { src; dst; seq; delay = delay' } ])
    in
    if !duplicated then
      ([ delay; delay ], spike_faults @ [ Duplicated { src; dst; seq } ])
    else ([ delay ], spike_faults)

