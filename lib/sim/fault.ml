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

(* One function per value rule, called by the constructors and by
   [check_specs], so a spec built in code is refused like one built by
   its constructor. *)
let check_p p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Fault: probability must lie in [0, 1]"

let check_margin margin =
  if Rat.sign margin <= 0 then
    invalid_arg "Fault.spikes: margin must be positive"

let check_crash_time at =
  if Rat.sign at < 0 then
    invalid_arg ("Fault: crash time " ^ Rat.to_string at ^ " is negative")

let drops ?(edges = All) p =
  check_p p;
  Drop { p; edges }

let duplicates ?(edges = All) p =
  check_p p;
  Duplicate { p; edges }

let spikes ?(edges = All) ?(below = false) ~margin p =
  check_p p;
  check_margin margin;
  Spike { p; edges; margin; below }

let crash ~proc ~at =
  check_crash_time at;
  Crash { proc; at }

let skew ~proc ~offset = Skew { proc; offset }

(* Recursions rather than closures over [n]: a scenario decode checks
   its plan, and a valid plan allocates nothing. *)
let outside ~n p = p < 0 || p >= n

let check_proc spec ~n p =
  if outside ~n p then
    invalid_arg (Printf.sprintf "Fault: %s process %d outside [0, %d)" spec p n)

let rec check_edges spec ~n = function
  | [] -> ()
  | (src, dst) :: rest ->
      if outside ~n src || outside ~n dst then
        invalid_arg
          (Printf.sprintf "Fault: %s edge (%d %d) outside [0, %d)" spec src dst
             n);
      check_edges spec ~n rest

let check_edges_of spec ~n = function
  | All -> ()
  | Edges l -> check_edges spec ~n l

let rec check_specs ~n = function
  | [] -> ()
  | spec :: rest ->
      (match spec with
      | Drop { p; edges } ->
          check_p p;
          check_edges_of "drop" ~n edges
      | Duplicate { p; edges } ->
          check_p p;
          check_edges_of "duplicate" ~n edges
      | Spike { p; edges; margin; _ } ->
          check_p p;
          check_margin margin;
          check_edges_of "spike" ~n edges
      | Crash { proc; at } ->
          check_crash_time at;
          check_proc "crash" ~n proc
      | Skew { proc; _ } -> check_proc "skew" ~n proc);
      check_specs ~n rest

let check plan ~n = check_specs ~n plan.specs

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

type injector = {
  spec : plan;
  rng : Random.State.t;
  mutable spike_delay : Rat.t;
}

let instantiate plan =
  {
    spec = plan;
    rng = Random.State.make [| plan.seed; 0x5eed |];
    spike_delay = Rat.zero;
  }

let dropped = 1
let duplicated = 2
let spiked = 4
let spike_delay t = t.spike_delay

(* [Random.State.float rng 1.0 < p], drawn as the stdlib draws it but
   compared in place, so no float is boxed. *)
let roll rng p = p > 0. && float_of_int (Uniform.bits rng) *. Uniform.scale < p

let rec on_edge src dst = function
  | [] -> false
  | (s, d) :: rest -> (s = src && d = dst) || on_edge src dst rest

let hit t p edges ~src ~dst =
  roll t.rng p
  && match edges with All -> true | Edges list -> on_edge src dst list

(* Every probabilistic spec is rolled on every transmission, in plan
   order, so the RNG stream consumed per send depends only on the plan
   — never on which faults happened to trigger.  Determinism therefore
   survives plan-behavioural changes downstream (e.g. a retransmission
   rolling fresh faults). *)
let rec fate t ~src ~dst ~delay acc = function
  | [] -> acc
  | spec :: rest ->
      let acc =
        match spec with
        | Drop { p; edges } ->
            if hit t p edges ~src ~dst then acc lor dropped else acc
        | Duplicate { p; edges } ->
            if hit t p edges ~src ~dst then acc lor duplicated else acc
        | Spike { p; edges; margin; below } ->
            if hit t p edges ~src ~dst && acc land spiked = 0 then (
              (* Relative to the sampled delay, not the model: the same
                 plan must stay meaningful when the run is judged
                 against an inflated recovery model. *)
              t.spike_delay <-
                (if below then Rat.max Rat.zero (Rat.sub delay margin)
                 else Rat.add delay margin);
              acc lor spiked)
            else acc
        | Crash _ | Skew _ -> acc
      in
      fate t ~src ~dst ~delay acc rest

let decide t ~src ~dst ~delay = fate t ~src ~dst ~delay 0 t.spec.specs
