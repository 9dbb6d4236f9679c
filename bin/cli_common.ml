(* Shared flag parsing for every repro subcommand.

   One module owns the converters and the argument definitions the
   subcommands have in common — the model point (n/d/u/eps), Algorithm
   1's X, seeds, budgets, --jobs, --json, --resume, checker and
   algorithm selection, the data-type enum, fault-plan and grid-spec
   parsers, and scenario-file resolution — so a flag means the same
   thing everywhere and is documented once. *)

open Cmdliner

(* ---------------- rational converter ---------------- *)

let parse_rat s =
  match String.index_opt s '/' with
  | None -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> Ok (Rat.of_int n)
      | None -> Error (Printf.sprintf "not a rational: %S" s))
  | Some i -> (
      let num = String.sub s 0 i in
      let den = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt num, int_of_string_opt den) with
      | Some n, Some d when d <> 0 -> Ok (Rat.make n d)
      | _ -> Error (Printf.sprintf "not a rational: %S" s))

let rat_conv =
  let parse s =
    match parse_rat s with Ok r -> Ok r | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Rat.pp)

(* ---------------- model point ---------------- *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let d_arg =
  Arg.(
    value
    & opt rat_conv (Rat.of_int 12)
    & info [ "d" ] ~docv:"D" ~doc:"Maximum message delay.")

let u_arg =
  Arg.(
    value
    & opt rat_conv (Rat.of_int 4)
    & info [ "u" ] ~docv:"U" ~doc:"Delay uncertainty (delays in [d-u, d]).")

let eps_arg =
  Arg.(
    value
    & opt (some rat_conv) None
    & info [ "eps" ] ~docv:"EPS"
        ~doc:"Clock skew bound; defaults to the optimal (1-1/n)u.")

let x_arg =
  Arg.(
    value
    & opt (some rat_conv) None
    & info [ "x" ] ~docv:"X"
        ~doc:
          "Algorithm 1's tradeoff parameter in [0, d-eps]; defaults to \
           (d-eps)/2.")

(* A flag value whose arithmetic leaves [Rat]'s 63-bit range is
   refused with the run site's own overflow text. *)
let named_overflow f =
  try f () with Rat.Overflow -> Error (Scenario.Exec.abort_message Overflow)

(* [Sim.Model.make] is the model's one check: a point it refuses is
   refused by its message before any run starts. *)
let make_model n d u eps =
  named_overflow (fun () ->
      match
        match eps with
        | Some eps -> Sim.Model.make ~n ~d ~u ~eps
        | None -> Sim.Model.make_optimal_eps ~n ~d ~u
      with
      | model -> Ok model
      | exception Invalid_argument msg -> Error msg)

(* An X outside [0, d - eps] makes one of Algorithm 1's waits
   negative: refuse it by name before any run starts.  An eps above d
   leaves no X at all, the default (d - eps)/2 included. *)
let make_x (model : Sim.Model.t) x =
  named_overflow (fun () ->
      let x =
        match x with
        | Some x -> x
        | None -> Rat.div_int (Rat.sub model.d model.eps) 2
      in
      Result.map (fun () -> x) (Core.Wtlw.check_x model x))

let model_and_x n d u eps x =
  Result.bind (make_model n d u eps) (fun model ->
      Result.map (fun x -> (model, x)) (make_x model x))

(* ---------------- seeds and budgets ---------------- *)

(* Count flags: a value below the least the flag can mean is refused
   by the flag's name before anything runs. *)
let at_least lo ~below =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
        Error
          (`Msg (Printf.sprintf "%d is %s; expected a count >= %d" n below lo))
    | parsed -> parsed
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative = at_least 0 ~below:"negative"
let positive = at_least 1 ~below:"not positive"

(* The same for real-valued flags, which also refuse nan: [ok] is
   false for nan, and [bound] names the values it accepts. *)
let float_where ok ~below ~bound =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (ok x) ->
        let what = if Float.is_nan x then "not a number" else below in
        Error
          (`Msg (Printf.sprintf "%g is %s; expected a number %s" x what bound))
    | parsed -> parsed
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let non_negative_float =
  float_where (fun x -> x >= 0.) ~below:"negative" ~bound:">= 0"

let positive_float =
  float_where (fun x -> x > 0.) ~below:"not positive" ~bound:"> 0"

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let ops_arg =
  Arg.(
    value & opt non_negative 10
    & info [ "ops" ] ~docv:"K" ~doc:"Operations per process (closed loop).")

let jobs_arg =
  Arg.(
    value & opt positive 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Evaluate cells on N OCaml domains (1 = inline).  Verdicts are \
           deterministic: every cell derives its RNG seed from its own \
           coordinates, so the report is byte-identical for every N.")

(* ---------------- data type / algorithm / checker ---------------- *)

(* Every bundled type, dispatched through its first-class packing — no
   per-command match arms over a type enum. *)
let all_types =
  List.map (fun pt -> (Sweep.Packed_type.key pt, pt)) Sweep.Packed_type.all

let packed_queue = Option.get (Sweep.Packed_type.find "queue")
let packed_register = Option.get (Sweep.Packed_type.find "register")

let type_arg =
  Arg.(
    value
    & opt (enum all_types) packed_queue
    & info [ "type"; "t" ] ~docv:"TYPE"
        ~doc:
          (Printf.sprintf "Data type: one of %s."
             (String.concat ", " Sweep.Packed_type.keys)))

let algo_arg =
  Arg.(
    value
    & opt (enum [ ("wtlw", `Wtlw); ("centralized", `Centralized); ("tob", `Tob) ])
        `Wtlw
    & info [ "algorithm"; "a" ] ~docv:"ALGO"
        ~doc:"Implementation: wtlw (the paper's), centralized or tob.")

let checker_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("monitor", Core.Runtime.Monitor);
             ("wing-gong", Core.Runtime.Wing_gong);
           ])
        Core.Runtime.Monitor
    & info [ "checker" ] ~docv:"ENGINE"
        ~doc:
          "Linearizability engine: $(b,monitor) (the specialized O(n log n) \
           per-type monitors, falling back to Wing-Gong only on histories a \
           kernel cannot certify) or $(b,wing-gong) (the exponential DFS \
           directly).")

(* ---------------- reporting / durability ---------------- *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable report.")

(* Whole reports print compact; records appended to a file, one a line,
   print spaced. *)
let print_json v = Format.printf "%s@." (Core.Json.compact v)

let append_json path v =
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
      output_string oc (Core.Json.spaced v ^ "\n"))

let json_path_arg ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let resume_arg ~unit_ =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf
             "Journal every completed %s to $(docv)/journal and replay %ss \
              already journaled there, so an interrupted or killed run \
              resumes with a byte-identical fingerprint."
             unit_ unit_))

let journal_sync_arg =
  Arg.(
    value & opt positive 1
    & info [ "journal-sync" ] ~docv:"N"
        ~doc:"fsync the checkpoint journal every $(docv) records.")

(* ---------------- fault plans ---------------- *)

(* Comma-separated fault plan, e.g. "drop=0.05,dup=0.01,spike=0.1";
   "none" disables injection.  Spike margin is u+1, guaranteed to leave
   the admissible envelope. *)
let parse_fault_plan ~(model : Sim.Model.t) s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok Sim.Fault.none
  else
    let spec part =
      match String.split_on_char '=' (String.trim part) with
      | [ "drop"; p ] -> Sim.Fault.drops (float_of_string p)
      | [ "dup"; p ] -> Sim.Fault.duplicates (float_of_string p)
      | [ "spike"; p ] ->
          Sim.Fault.spikes
            ~margin:(Rat.add model.u Rat.one)
            (float_of_string p)
      | _ -> failwith part
    in
    match List.map spec (String.split_on_char ',' s) with
    | specs -> Ok (Sim.Fault.plan specs)
    | exception _ ->
        Error
          (Printf.sprintf
             "bad fault plan %S (expected e.g. \"drop=0.05,dup=0.01,spike=0.1\" \
              or \"none\")"
             s)

(* ---------------- grid specs ---------------- *)

(* Grid spec: semicolon-separated model points, each a comma-separated
   "k=v" list, e.g. "n=3,d=10,u=4,eps=1;n=4,d=8,u=2" (eps defaults to
   the optimal (1-1/n)u). *)
let parse_grid_points spec =
  let parse_point s =
    let kvs = String.split_on_char ',' (String.trim s) in
    let rec gather acc = function
      | [] -> Ok acc
      | kv :: rest -> (
          match String.index_opt kv '=' with
          | None -> Error (Printf.sprintf "bad grid entry %S (want k=v)" kv)
          | Some i -> (
              let k = String.trim (String.sub kv 0 i) in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match parse_rat v with
              | Error msg -> Error msg
              | Ok r -> gather ((k, r) :: acc) rest))
    in
    match gather [] kvs with
    | Error msg -> Error msg
    | Ok kvs -> (
        let find k = List.assoc_opt k kvs in
        match (find "n", find "d", find "u") with
        | Some n, Some d, Some u when Rat.den n = 1 ->
            make_model (Rat.num n) d u (find "eps")
        | _ ->
            Error
              (Printf.sprintf "grid point %S needs integer n plus d and u" s))
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match parse_point s with
        | Error msg -> Error msg
        | Ok m -> all (m :: acc) rest)
  in
  match String.split_on_char ';' spec with
  | [] -> Error "empty grid spec"
  | points -> all [] points

(* ---------------- scenario files ---------------- *)

let scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Take the run description from a scenario file (or a builtin \
           scenario name) instead of the individual flags; see $(b,repro \
           scenario).")

(* A scenario reference is a file path or a builtin name; files win so
   a stray "ablation-counterexample" file in the working directory is
   not shadowed silently. *)
let load_scenario ref_ : (Scenario.t, string) result =
  if Sys.file_exists ref_ then Scenario.load ref_
  else
    match Scenario.Builtin.find ref_ with
    | Some s -> Ok s
    | None ->
        Error
          (Printf.sprintf
             "%s: no such file, and no builtin scenario by that name \
              (builtins: %s)"
             ref_
             (String.concat ", "
                (List.map
                   (fun (s : Scenario.t) -> s.Scenario.name)
                   Scenario.Builtin.all)))
