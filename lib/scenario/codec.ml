(* Stable textual encoding of scenarios.

   The printer writes every field straight into one buffer, in a fixed
   order, with canonical atom renderings (integers and rationals digit
   by digit, "n/d" for fractions, floats via a round-trip-exact
   printer), so [to_string] is an injection: two scenarios are equal
   iff their renderings are byte-identical, and
   [of_string (to_string s) = Ok s] for every well-formed scenario.

   The decoder reads the text by index and builds no tree.  One
   [Sexp.scan] checks the syntax and, in the same pass, records where
   each top-level field first occurs; each field is then decoded in
   place.  Keywords are compared where they stand, numbers are parsed
   from their digits, and a string is built only for a value the
   scenario keeps. *)

open Types

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let add_int = Sexp.add_int
let add_rat = Rat.add_to_buffer

(* [%.12g] when that re-parses bit-exactly, hexadecimal [%h]
   otherwise: both read back as the identical float. *)
let add_float b f =
  let s = Printf.sprintf "%.12g" f in
  Buffer.add_string b
    (if float_of_string s = f then s else Printf.sprintf "%h" f)

let add_bool b v = Buffer.add_string b (if v then "true" else "false")

let add_name = Sexp.add_atom
let add_kw = Buffer.add_string
let close b = Buffer.add_char b ')'

(* A list is written as [(kw], then [ v] per value, then [)].  The
   printers passed around are toplevel functions, so passing them
   allocates nothing. *)
let open_ b kw =
  Buffer.add_char b '(';
  Buffer.add_string b kw

let arg b add v =
  Buffer.add_char b ' ';
  add b v

let form1 b kw add v =
  open_ b kw;
  arg b add v;
  close b

let form2 b kw add v add' w =
  open_ b kw;
  arg b add v;
  arg b add' w;
  close b

let form_list b kw add l =
  open_ b kw;
  List.iter (fun v -> arg b add v) l;
  close b

let add_edge b (src, dst) =
  open_ b "";
  add_int b src;
  arg b add_int dst;
  close b

let add_edges b = function
  | Sim.Fault.All -> add_kw b "all"
  | Sim.Fault.Edges l -> form_list b "edges" add_edge l

let add_spec b = function
  | Sim.Fault.Drop { p; edges } -> form2 b "drop" add_float p add_edges edges
  | Sim.Fault.Duplicate { p; edges } ->
      form2 b "duplicate" add_float p add_edges edges
  | Sim.Fault.Spike { p; edges; margin; below } ->
      open_ b "spike";
      arg b add_float p;
      arg b add_rat margin;
      arg b add_kw (if below then "below" else "above");
      arg b add_edges edges;
      close b
  | Sim.Fault.Crash { proc; at } -> form2 b "crash" add_int proc add_rat at
  | Sim.Fault.Skew { proc; offset } ->
      form2 b "skew" add_int proc add_rat offset

let add_knob b = function
  | Core.Ablation.Paper -> add_kw b "paper"
  | Core.Ablation.Paper_verbatim -> add_kw b "paper-verbatim"
  | Core.Ablation.No_execute_wait -> add_kw b "no-execute-wait"
  | Core.Ablation.Short_execute_wait r -> form1 b "short-execute-wait" add_rat r
  | Core.Ablation.No_add_wait -> add_kw b "no-add-wait"
  | Core.Ablation.Eager_accessor r -> form1 b "eager-accessor" add_rat r
  | Core.Ablation.No_accessor_backdate -> add_kw b "no-accessor-backdate"

let add_algorithm b = function
  | Wtlw { x; knob } -> form2 b "wtlw" add_rat x add_knob knob
  | Centralized -> add_kw b "centralized"
  | Tob -> add_kw b "tob"

let add_row b row =
  open_ b "";
  Array.iteri (fun j r -> if j = 0 then add_rat b r else arg b add_rat r) row;
  close b

let add_delays b = function
  | Random_delays -> add_kw b "random"
  | Max_delays -> add_kw b "max"
  | Min_delays -> add_kw b "min"
  | Matrix m ->
      open_ b "matrix";
      Array.iter (fun row -> arg b add_row row) m;
      close b

let add_arrival b = function
  | Core.Workload.Poisson { rate } -> form1 b "poisson" add_rat rate
  | Core.Workload.Bursty { rate; size } ->
      form2 b "bursty" add_rat rate add_int size
  | Core.Workload.Diurnal { rate; period; trough } ->
      open_ b "diurnal";
      arg b add_rat rate;
      arg b add_rat period;
      arg b add_rat trough;
      close b

let add_op_ref b = function
  | Sample { op; index } -> form2 b "sample" add_name op add_int index
  | Tagged { op; tag } -> form2 b "tagged" add_name op add_int tag

let add_entry b { proc; at; op } =
  open_ b "";
  add_int b proc;
  arg b add_rat at;
  arg b add_op_ref op;
  close b

let add_workload b = function
  | Explicit l -> form_list b "explicit" add_entry l
  | Closed_loop { per_proc; think } ->
      form2 b "closed-loop" add_int per_proc add_rat think
  | Generated { arrival; zipf; keys; ops } ->
      open_ b "generated";
      arg b add_arrival arrival;
      arg b add_float zipf;
      arg b add_int keys;
      arg b add_int ops;
      close b

let add_state_atom b = function
  | Completed_ge k -> form1 b "completed-ge" add_int k
  | Latency_le t -> form1 b "latency-le" add_rat t
  | Op_is s -> form1 b "op-is" add_name s
  | Resp_by t -> form1 b "resp-by" add_rat t

let add_final_atom b = function
  | Pending_le k -> form1 b "pending-le" add_int k
  | Messages_le k -> form1 b "messages-le" add_int k
  | Faults_le k -> form1 b "faults-le" add_int k
  | Linearizable -> add_kw b "linearizable"
  | Converged -> add_kw b "converged"

let rec add_pred b = function
  | True -> add_kw b "true"
  | Not p -> form1 b "not" add_pred p
  | And (p, q) -> form2 b "and" add_pred p add_pred q
  | Or (p, q) -> form2 b "or" add_pred p add_pred q
  | Always a -> form1 b "always" add_state_atom a
  | Eventually a -> form1 b "eventually" add_state_atom a
  | Finally a -> form1 b "finally" add_final_atom a

let add_expect b = function
  | Certify -> add_kw b "certify"
  | Violate -> add_kw b "violate"
  | Diagnostic s -> form1 b "diagnostic" add_name s

let add_opt_int b = function
  | None -> add_kw b "none"
  | Some i -> add_int b i

let add_checker b c = add_kw b (Core.Runtime.checker_name c)

(* Each top-level field on its own line. *)
let line b = Buffer.add_string b "\n  "

let add_field b key add v =
  line b;
  form1 b key add v

let to_string (s : t) =
  let b = Buffer.create 512 in
  let m = s.model in
  add_kw b "(scenario";
  add_field b "name" add_name s.name;
  add_field b "type" add_name s.dt;
  line b;
  open_ b "model";
  arg b add_int m.Sim.Model.n;
  arg b add_rat m.Sim.Model.d;
  arg b add_rat m.Sim.Model.u;
  arg b add_rat m.Sim.Model.eps;
  close b;
  line b;
  open_ b "offsets";
  Array.iter (fun r -> arg b add_rat r) s.offsets;
  close b;
  add_field b "delays" add_delays s.delays;
  line b;
  open_ b "faults";
  arg b add_int s.faults.Sim.Fault.seed;
  List.iter (fun spec -> arg b add_spec spec) s.faults.Sim.Fault.specs;
  close b;
  add_field b "reliable" add_bool s.reliable;
  add_field b "checker" add_checker s.checker;
  add_field b "algorithm" add_algorithm s.algorithm;
  add_field b "workload" add_workload s.workload;
  add_field b "seed" add_int s.seed;
  add_field b "max-events" add_opt_int s.max_events;
  add_field b "max-check-nodes" add_opt_int s.max_check_nodes;
  add_field b "expect" add_expect s.expect;
  add_field b "predicate" add_pred s.predicate;
  add_kw b ")\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(* A read position in scanned text.  A decoder reads the element at
   [pos] and leaves [pos] on the element after it, or on the enclosing
   [)], so a field's bytes are read once, front to back. *)
type cursor = { s : string; mutable pos : int }

exception Fail of string

(* The element being read is not the form expected: a list one element
   short or long, or a list where a name belongs.  The form's decoder
   turns it into its own complaint ([misfit]). *)
exception Shape

let fail msg = raise (Fail msg)
let at_close c = Sexp.is_close c.s c.pos
let step c = c.pos <- Sexp.sibling c.s c.pos

(* A [)] where an element belongs means the form is short. *)
let value c = if at_close c then raise Shape

(* An atom spelled [kw] at [pos] is read; [false], reading nothing,
   otherwise. *)
let keyword c kw =
  Sexp.atom_is c.s c.pos kw
  && begin
       step c;
       true
     end

(* The [)] ending the list being read. *)
let leave c =
  if at_close c then c.pos <- Sexp.skip c.s (c.pos + 1) else raise Shape

(* A list at [pos] is entered: [pos] moves to its first element. *)
let enter_list c = c.pos <- Sexp.first c.s c.pos

(* Forms are lists headed by a keyword: [(tag, keyword, arity)], the
   arity counting the head, -1 for any length.  [form_index] finds the
   keyword the atom at [h] spells. *)
let rec form_index s h forms k =
  if k = Array.length forms then -1
  else
    let _, kw, _ = forms.(k) in
    if Sexp.atom_is s h kw then k else form_index s h forms (k + 1)

(* The tag of the form at [pos], with [pos] moved past its head;
   [`Other], reading nothing, when [pos] holds none of [forms]. *)
let enter c forms =
  if not (Sexp.is_list c.s c.pos) then `Other
  else
    let h = Sexp.first c.s c.pos in
    let k = form_index c.s h forms 0 in
    if k < 0 then `Other
    else begin
      c.pos <- Sexp.sibling c.s h;
      let tag, _, _ = forms.(k) in
      tag
    end

(* Forms are read before their length is known.  A failure inside the
   form at [i] is reported as the form's own [msg] when the form turns
   out to have the wrong length (or [Shape] says so), exactly as if
   its shape had been checked first; otherwise it stands. *)
let misfit c i forms msg e =
  match e with
  | Shape -> fail msg
  | e ->
      let fits =
        Sexp.is_list c.s i
        &&
        let h = Sexp.first c.s i in
        let k = form_index c.s h forms 0 in
        k >= 0
        &&
        let _, _, arity = forms.(k) in
        arity = -1 || arity = Sexp.count c.s h
      in
      if fits then raise e else fail msg

(* The form at [pos] among [forms], read by [body] from the tag
   [enter] returns; [body] raises [Shape] on [`Other].  Failures are
   [misfit]'s to judge. *)
let form c forms msg body =
  let i = c.pos in
  match
    let v = body c (enter c forms) in
    leave c;
    v
  with
  | v -> v
  | exception e -> misfit c i forms msg e

(* The atoms *)

let as_atom c =
  value c;
  if Sexp.is_list c.s c.pos then fail "expected atom";
  let a = Sexp.atom_at c.s c.pos in
  step c;
  a

(* A name the scenario keeps, where the form allows only an atom. *)
let name c =
  value c;
  if Sexp.is_list c.s c.pos then raise Shape;
  as_atom c

(* A bare [-?[0-9]{1,18}] spanning exactly [i, e), which cannot
   overflow; [Exit] for every other spelling. *)
let decimal s i e =
  let j = if i < e && s.[i] = '-' then i + 1 else i in
  if e - j < 1 || e - j > 18 then raise_notrace Exit;
  let v = ref 0 in
  for k = j to e - 1 do
    match s.[k] with
    | '0' .. '9' as c -> v := (!v * 10) + (Char.code c - 48)
    | _ -> raise_notrace Exit
  done;
  if j > i then - !v else !v

(* Canonical spellings take the digit path; anything else (quoted,
   hexadecimal, underscores, a leading [+]) falls back to
   [int_of_string] on the atom's text, which also names a bad one. *)
let as_int c =
  value c;
  let e = Sexp.bare_end c.s c.pos in
  match decimal c.s c.pos e with
  | v ->
      c.pos <- Sexp.skip c.s e;
      v
  | exception Exit -> (
      let a = as_atom c in
      match int_of_string_opt a with
      | Some v -> v
      | None -> fail ("bad int: " ^ a))

let rat_of_string a =
  match String.index_opt a '/' with
  | None -> Option.map Rat.of_int (int_of_string_opt a)
  | Some k -> (
      let num = String.sub a 0 k
      and den = String.sub a (k + 1) (String.length a - k - 1) in
      match (int_of_string_opt num, int_of_string_opt den) with
      | Some n, Some d when d <> 0 -> Some (Rat.make n d)
      | _ -> None)

let rec slash s j e = if j = e || s.[j] = '/' then j else slash s (j + 1) e

let as_rat c =
  value c;
  let s = c.s and i = c.pos in
  let e = Sexp.bare_end s i in
  match
    let k = slash s i e in
    if k = e then Rat.of_int (decimal s i e)
    else
      let d = decimal s (k + 1) e in
      if d = 0 then raise_notrace Exit;
      Rat.make (decimal s i k) d
  with
  | r ->
      c.pos <- Sexp.skip s e;
      r
  | exception Exit -> (
      let a = as_atom c in
      match rat_of_string a with
      | Some r -> r
      | None -> fail ("bad rational: " ^ a))

let as_float c =
  let a = as_atom c in
  match float_of_string_opt a with
  | Some f -> f
  | None -> fail ("bad float: " ^ a)

let as_bool c =
  value c;
  if keyword c "true" then true
  else if keyword c "false" then false
  else fail ("bad bool: " ^ as_atom c)

(* The elements up to the enclosing [)], decoded in order.  When
   several fail, the last failure is the one raised: the error scenario
   files have always reported for such lists. *)
let rec elements f c =
  if at_close c then []
  else
    let i = c.pos in
    match f c with
    | v ->
        let rest = elements f c in
        v :: rest
    | exception e ->
        c.pos <- Sexp.sibling c.s i;
        ignore (elements f c);
        raise e

let rec fill f c a k =
  if k < Array.length a then begin
    let i = c.pos in
    match f c with
    | v ->
        a.(k) <- v;
        fill f c a (k + 1)
    | exception e ->
        c.pos <- Sexp.sibling c.s i;
        fill f c a (k + 1);
        raise e
  end

(* [elements] into an array; [dummy] holds each slot until decoded. *)
let array f c dummy =
  let a = Array.make (Sexp.count c.s c.pos) dummy in
  fill f c a 0;
  a

(* The structures *)

let edge_of c =
  if not (Sexp.is_list c.s c.pos && Sexp.count c.s (Sexp.first c.s c.pos) = 2)
  then fail "bad edge";
  enter_list c;
  let src = as_int c in
  let dst = as_int c in
  leave c;
  (src, dst)

let edges_forms = [| (`Edges, "edges", -1) |]

let edges_body c = function
  | `Edges -> Sim.Fault.Edges (elements edge_of c)
  | `Other -> raise Shape

let edges_of c =
  if keyword c "all" then Sim.Fault.All
  else form c edges_forms "bad edges" edges_body

let spec_forms =
  [|
    (`Drop, "drop", 3);
    (`Duplicate, "duplicate", 3);
    (`Spike, "spike", 5);
    (`Crash, "crash", 3);
    (`Skew, "skew", 3);
  |]

(* Fault specs go through [Sim.Fault]'s validating constructors, whose
   complaint becomes the decode error. *)
let spec_body c tag =
  try
    match tag with
    | `Drop ->
        let p = as_float c in
        let edges = edges_of c in
        Sim.Fault.drops ~edges p
    | `Duplicate ->
        let p = as_float c in
        let edges = edges_of c in
        Sim.Fault.duplicates ~edges p
    | `Spike ->
        let p = as_float c in
        let margin = as_rat c in
        value c;
        let below =
          if keyword c "below" then true
          else if keyword c "above" then false
          else fail "spike direction must be above|below"
        in
        let edges = edges_of c in
        Sim.Fault.spikes ~edges ~below ~margin p
    | `Crash ->
        let proc = as_int c in
        let at = as_rat c in
        Sim.Fault.crash ~proc ~at
    | `Skew ->
        let proc = as_int c in
        let offset = as_rat c in
        Sim.Fault.skew ~proc ~offset
    | `Other -> raise Shape
  with Invalid_argument m -> fail m

let spec_of c = form c spec_forms "bad fault spec" spec_body

let knob_forms =
  [|
    (`Short_execute_wait, "short-execute-wait", 2);
    (`Eager_accessor, "eager-accessor", 2);
  |]

let knob_body c = function
  | `Short_execute_wait -> Core.Ablation.Short_execute_wait (as_rat c)
  | `Eager_accessor -> Core.Ablation.Eager_accessor (as_rat c)
  | `Other -> raise Shape

let knob_of c =
  if keyword c "paper" then Core.Ablation.Paper
  else if keyword c "paper-verbatim" then Core.Ablation.Paper_verbatim
  else if keyword c "no-execute-wait" then Core.Ablation.No_execute_wait
  else if keyword c "no-add-wait" then Core.Ablation.No_add_wait
  else if keyword c "no-accessor-backdate" then
    Core.Ablation.No_accessor_backdate
  else form c knob_forms "bad knob" knob_body

let algorithm_forms = [| (`Wtlw, "wtlw", 3) |]

let algorithm_body c = function
  | `Wtlw ->
      let x = as_rat c in
      let knob = knob_of c in
      Wtlw { x; knob }
  | `Other -> raise Shape

let algorithm_of c =
  if keyword c "centralized" then Centralized
  else if keyword c "tob" then Tob
  else form c algorithm_forms "bad algorithm" algorithm_body

let row_of c =
  if not (Sexp.is_list c.s c.pos) then fail "expected list";
  enter_list c;
  let row = array as_rat c Rat.zero in
  leave c;
  row

let delays_forms = [| (`Matrix, "matrix", -1) |]

let delays_body c = function
  | `Matrix -> Matrix (array row_of c [||])
  | `Other -> raise Shape

let delays_of c =
  if keyword c "random" then Random_delays
  else if keyword c "max" then Max_delays
  else if keyword c "min" then Min_delays
  else form c delays_forms "bad delays" delays_body

let arrival_forms =
  [| (`Poisson, "poisson", 2); (`Bursty, "bursty", 3); (`Diurnal, "diurnal", 4) |]

let arrival_body c = function
  | `Poisson -> Core.Workload.Poisson { rate = as_rat c }
  | `Bursty ->
      let rate = as_rat c in
      let size = as_int c in
      Core.Workload.Bursty { rate; size }
  | `Diurnal ->
      let rate = as_rat c in
      let period = as_rat c in
      let trough = as_rat c in
      Core.Workload.Diurnal { rate; period; trough }
  | `Other -> raise Shape

let arrival_of c = form c arrival_forms "bad arrival" arrival_body

let op_ref_forms = [| (`Sample, "sample", 3); (`Tagged, "tagged", 3) |]

let op_ref_body c = function
  | `Sample ->
      let op = name c in
      let index = as_int c in
      Sample { op; index }
  | `Tagged ->
      let op = name c in
      let tag = as_int c in
      Tagged { op; tag }
  | `Other -> raise Shape

let entry_of c =
  if not (Sexp.is_list c.s c.pos && Sexp.count c.s (Sexp.first c.s c.pos) = 3)
  then fail "bad entry";
  enter_list c;
  let proc = as_int c in
  let at = as_rat c in
  let op = form c op_ref_forms "bad op reference" op_ref_body in
  leave c;
  { proc; at; op }

let workload_forms =
  [|
    (`Explicit, "explicit", -1);
    (`Closed_loop, "closed-loop", 3);
    (`Generated, "generated", 5);
  |]

let workload_body c = function
  | `Explicit -> Explicit (elements entry_of c)
  | `Closed_loop ->
      let per_proc = as_int c in
      let think = as_rat c in
      Closed_loop { per_proc; think }
  | `Generated ->
      let arrival = arrival_of c in
      let zipf = as_float c in
      let keys = as_int c in
      let ops = as_int c in
      Generated { arrival; zipf; keys; ops }
  | `Other -> raise Shape

let workload_of c = form c workload_forms "bad workload" workload_body

let state_atom_forms =
  [|
    (`Completed_ge, "completed-ge", 2);
    (`Latency_le, "latency-le", 2);
    (`Op_is, "op-is", 2);
    (`Resp_by, "resp-by", 2);
  |]

let state_atom_body c = function
  | `Completed_ge -> Completed_ge (as_int c)
  | `Latency_le -> Latency_le (as_rat c)
  | `Op_is -> Op_is (name c)
  | `Resp_by -> Resp_by (as_rat c)
  | `Other -> raise Shape

let state_atom_of c = form c state_atom_forms "bad state atom" state_atom_body

let final_atom_forms =
  [|
    (`Pending_le, "pending-le", 2);
    (`Messages_le, "messages-le", 2);
    (`Faults_le, "faults-le", 2);
  |]

let final_atom_body c = function
  | `Pending_le -> Pending_le (as_int c)
  | `Messages_le -> Messages_le (as_int c)
  | `Faults_le -> Faults_le (as_int c)
  | `Other -> raise Shape

let final_atom_of c =
  if keyword c "linearizable" then Linearizable
  else if keyword c "converged" then Converged
  else form c final_atom_forms "bad final atom" final_atom_body

let pred_forms =
  [|
    (`Not, "not", 2);
    (`And, "and", 3);
    (`Or, "or", 3);
    (`Always, "always", 2);
    (`Eventually, "eventually", 2);
    (`Finally, "finally", 2);
  |]

let rec pred_body c = function
  | `Not -> Not (pred_of c)
  | `And ->
      let p = pred_of c in
      let q = pred_of c in
      And (p, q)
  | `Or ->
      let p = pred_of c in
      let q = pred_of c in
      Or (p, q)
  | `Always -> Always (state_atom_of c)
  | `Eventually -> Eventually (state_atom_of c)
  | `Finally -> Finally (final_atom_of c)
  | `Other -> raise Shape

and pred_of c =
  if keyword c "true" then True else form c pred_forms "bad predicate" pred_body

let expect_forms = [| (`Diagnostic, "diagnostic", 2) |]

let expect_body c = function
  | `Diagnostic -> Diagnostic (name c)
  | `Other -> raise Shape

let expect_of c =
  if keyword c "certify" then Certify
  else if keyword c "violate" then Violate
  else form c expect_forms "bad expectation" expect_body

let budget_of c =
  if keyword c "none" then None
  else Some (as_int c)

let checker_of c =
  if keyword c "monitor" then Core.Runtime.Monitor
  else if keyword c "wing-gong" then Core.Runtime.Wing_gong
  else fail ("bad checker: " ^ as_atom c)

(* ------------------------------------------------------------------ *)
(* The field table                                                     *)

let fields =
  [|
    "name"; "type"; "model"; "offsets"; "delays"; "faults"; "reliable";
    "checker"; "algorithm"; "workload"; "seed"; "max-events";
    "max-check-nodes"; "expect"; "predicate";
  |]

(* [at.(k)] is the offset of the first top-level list headed by
   [fields.(k)], or -1.  The scan calls [index] on every top-level
   list; a bare key is only compared with names of its length. *)
let rec enter_field s at i h len k =
  if k < Array.length fields then
    if (len < 0 || String.length fields.(k) = len) && Sexp.atom_is s h fields.(k)
    then (if at.(k) < 0 then at.(k) <- i)
    else enter_field s at i h len (k + 1)

let index s at i =
  let h = Sexp.first s i in
  let len = if s.[h] = '"' then -1 else Sexp.bare_end s h - h in
  enter_field s at i h len 0

let rec slot name k =
  if String.length fields.(k) = String.length name && String.equal fields.(k) name
  then k
  else slot name (k + 1)

(* Moves [c] to the first value of field [name]; the offset. *)
let values c at name =
  let i = at.(slot name 0) in
  if i < 0 then fail ("missing field " ^ name);
  c.pos <- Sexp.sibling c.s (Sexp.first c.s i);
  c.pos

(* [f] over the values of field [name], its failures prefixed with the
   name. *)
let field c at name f =
  ignore (values c at name);
  match f c with
  | v -> v
  | exception Fail m -> fail (name ^ ": " ^ m)

(* [f] over the sole value of field [name].  As with forms, a field
   that holds more or fewer values reports that, whatever [f] found. *)
let field1 c at name f =
  let v = values c at name in
  match f c with
  | x when at_close c -> x
  | _ -> fail (name ^ ": expected a single value")
  | exception e -> (
      if Sexp.count c.s v <> 1 then fail (name ^ ": expected a single value");
      match e with Fail m -> fail (name ^ ": " ^ m) | e -> raise e)

let model_of c =
  if Sexp.count c.s c.pos <> 4 then fail "expected (model N D U EPS)";
  let n = as_int c in
  let d = as_rat c in
  let u = as_rat c in
  let eps = as_rat c in
  try Sim.Model.make ~n ~d ~u ~eps with Invalid_argument m -> fail m

let offsets_of c = array as_rat c Rat.zero

let faults_of c =
  if at_close c then fail "expected (faults SEED SPEC...)";
  let seed = as_int c in
  let specs = elements spec_of c in
  { Sim.Fault.seed; specs }

(* Fields are decoded in this order, so the first failure reported is
   the same whatever order the text lists them in; the range checks
   every scenario passes ([Types.validate]) follow. *)
let decode c at =
  let top = Sexp.skip c.s 0 in
  if
    not (Sexp.is_list c.s top && Sexp.atom_is c.s (Sexp.first c.s top) "scenario")
  then fail "not a (scenario ...) form";
  let name = field1 c at "name" as_atom in
  let dt = field1 c at "type" as_atom in
  let model = field c at "model" model_of in
  let offsets = field c at "offsets" offsets_of in
  let delays = field1 c at "delays" delays_of in
  let faults = field c at "faults" faults_of in
  let reliable = field1 c at "reliable" as_bool in
  let checker = field1 c at "checker" checker_of in
  let algorithm = field1 c at "algorithm" algorithm_of in
  let workload = field1 c at "workload" workload_of in
  let seed = field1 c at "seed" as_int in
  let max_events = field1 c at "max-events" budget_of in
  let max_check_nodes = field1 c at "max-check-nodes" budget_of in
  let expect = field1 c at "expect" expect_of in
  let predicate = field1 c at "predicate" pred_of in
  let s =
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
  in
  match validate s with Ok () -> s | Error m -> fail m

let of_string str =
  let at = Array.make (Array.length fields) (-1) in
  match Sexp.scan str ~field:(index str at) with
  | Error m -> Error m
  | Ok () -> (
      match decode { s = str; pos = 0 } at with
      | v -> Ok v
      | exception Fail m -> Error m)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let save path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string s))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | str -> of_string str
  | exception Sys_error m -> Error m
