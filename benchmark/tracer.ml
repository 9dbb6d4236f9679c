(* Spans for the traced run, recorded from the benchmark's own files
   around public calls into each layer; nothing inside the library is
   instrumented.

   Two granularities share one span stack:
   - per-event calls (handler invocations, workload pulls, calls back
     into the engine) only add to per-(layer, parent layer) call and
     nanosecond accumulators, so a run of millions of events stays
     O(layers^2) in memory;
   - coarse calls (a shard, a key check, a history, a sweep cell, a
     scenario) are also kept as individual spans with their parent,
     and written out as JSON when the run ends.

   A layer's self time is its spans' duration minus the time their
   child spans cover.  A disabled tracer makes every call a plain
   function call, so set-up code can be shared by traced and untraced
   runs. *)

module V = Spec.Adt_view

type layer =
  | Harness  (** the benchmark's own glue; not counted as coverage *)
  | Workload
  | Engine
  | Protocol
  | Reliable
  | Records
  | Kernel of V.kind
  | Verify
  | Lin
  | Shard_group
  | Shard_merge
  | Sweep_cell
  | Journal_append
  | Journal_load
  | Codec
  | Exec

let kinds = [ V.Register; V.Set; V.Queue; V.Stack; V.Priority_queue ]

let kind_name = function
  | V.Register -> "register"
  | V.Set -> "set"
  | V.Queue -> "queue"
  | V.Stack -> "stack"
  | V.Priority_queue -> "priority_queue"

let layers =
  [ Harness; Workload; Engine; Protocol; Reliable; Records ]
  @ List.map (fun k -> Kernel k) kinds
  @ [
      Verify;
      Lin;
      Shard_group;
      Shard_merge;
      Sweep_cell;
      Journal_append;
      Journal_load;
      Codec;
      Exec;
    ]

let name = function
  | Harness -> "harness"
  | Workload -> "workload"
  | Engine -> "engine"
  | Protocol -> "protocol"
  | Reliable -> "reliable"
  | Records -> "monitor.records"
  | Kernel k -> "monitor.kernel." ^ kind_name k
  | Verify -> "monitor.verify"
  | Lin -> "lin"
  | Shard_group -> "shard.group"
  | Shard_merge -> "shard.merge"
  | Sweep_cell -> "sweep"
  | Journal_append -> "journal.append"
  | Journal_load -> "journal.load"
  | Codec -> "scenario.codec"
  | Exec -> "scenario.exec"

(* Position in [layers]; a match, because it runs on every span. *)
let index = function
  | Harness -> 0
  | Workload -> 1
  | Engine -> 2
  | Protocol -> 3
  | Reliable -> 4
  | Records -> 5
  | Kernel V.Register -> 6
  | Kernel V.Set -> 7
  | Kernel V.Queue -> 8
  | Kernel V.Stack -> 9
  | Kernel V.Priority_queue -> 10
  | Verify -> 11
  | Lin -> 12
  | Shard_group -> 13
  | Shard_merge -> 14
  | Sweep_cell -> 15
  | Journal_append -> 16
  | Journal_load -> 17
  | Codec -> 18
  | Exec -> 19

let n_layers = List.length layers
let () = List.iteri (fun i l -> assert (index l = i)) layers

type span = {
  id : int;
  parent : int;  (** id of the enclosing coarse span; 0 at the root *)
  layer : layer;
  label : string;
  start_ns : int;
  stop_ns : int;
}

let max_depth = 256

type t = {
  enabled : bool;
  self_ns : int array;
  calls : int array array;
      (** [layer][parent layer]; a root span's parent is [Harness] *)
  total_ns : int array array;
  mutable root_ns : int;  (** wall time of the spans opened at depth 0 *)
  stack_layer : int array;
  stack_start : int array;
  stack_child : int array;
  stack_id : int array;
  mutable depth : int;
  mutable last_stop : int;  (** stop time of the span closed last *)
  mutable spans : span list;
  mutable next_id : int;
  counters : (string, float) Hashtbl.t;
}

let make enabled =
  {
    enabled;
    self_ns = Array.make n_layers 0;
    calls = Array.make_matrix n_layers n_layers 0;
    total_ns = Array.make_matrix n_layers n_layers 0;
    root_ns = 0;
    stack_layer = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    stack_id = Array.make max_depth 0;
    depth = 0;
    last_stop = 0;
    spans = [];
    next_id = 1;
    counters = Hashtbl.create 16;
  }

let create () = make true
let off () = make false
let now = Perf.Measure.monotonic_ns

let push t l id =
  let d = t.depth in
  if d >= max_depth then failwith "Tracer: span stack overflow";
  t.stack_layer.(d) <- index l;
  t.stack_id.(d) <- (if id = 0 && d > 0 then t.stack_id.(d - 1) else id);
  t.stack_child.(d) <- 0;
  t.depth <- d + 1;
  t.stack_start.(d) <- now ()

(* Close the innermost span. *)
let pop t =
  let stop = now () in
  t.last_stop <- stop;
  let d = t.depth - 1 in
  t.depth <- d;
  let start = t.stack_start.(d) in
  let dur = stop - start in
  let l = t.stack_layer.(d) in
  let parent = if d = 0 then 0 else t.stack_layer.(d - 1) in
  t.self_ns.(l) <- t.self_ns.(l) + dur - t.stack_child.(d);
  t.calls.(l).(parent) <- t.calls.(l).(parent) + 1;
  t.total_ns.(l).(parent) <- t.total_ns.(l).(parent) + dur;
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur
  else t.root_ns <- t.root_ns + dur

(* Per-event boundary, for hot paths that cannot afford a closure. *)
let enter t l = if t.enabled then push t l 0
let leave t = if t.enabled then pop t

let span t l f =
  if not t.enabled then f ()
  else begin
    push t l 0;
    match f () with
    | v ->
        pop t;
        v
    | exception e ->
        pop t;
        raise e
  end

(* A coarse span: also kept individually, with its parent span. *)
let coarse t l label f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = if t.depth = 0 then 0 else t.stack_id.(t.depth - 1) in
    push t l id;
    let finish () =
      let start_ns = t.stack_start.(t.depth - 1) in
      pop t;
      t.spans <-
        { id; parent; layer = l; label; start_ns; stop_ns = t.last_stop } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let add t name x =
  if t.enabled then
    Hashtbl.replace t.counters name
      (x +. Option.value (Hashtbl.find_opt t.counters name) ~default:0.)

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.
let self_s t l = float_of_int t.self_ns.(index l) /. 1e9

let calls t l =
  let i = index l in
  Array.fold_left ( + ) 0 t.calls.(i)

(* Coarse spans of one layer, oldest first. *)
let spans_of t l =
  List.rev (List.filter (fun (s : span) -> s.layer = l) t.spans)

let duration_s (s : span) = float_of_int (s.stop_ns - s.start_ns) /. 1e9

let root_s t = float_of_int t.root_ns /. 1e9

(* Share of the root spans' wall time that the named layers' self
   times cover; the rest is the harness's own glue. *)
let coverage t =
  let covered = ref 0 in
  Array.iteri
    (fun l ns -> if l <> index Harness then covered := !covered + ns)
    t.self_ns;
  if t.root_ns = 0 then 0. else float_of_int !covered /. float_of_int t.root_ns

let to_json t =
  let open Json in
  let layer_rows =
    List.concat_map
      (fun l ->
        let i = index l in
        List.filter_map
          (fun p ->
            let j = index p in
            if t.calls.(i).(j) = 0 then None
            else
              Some
                (Obj
                   [
                     ("layer", Str (name l));
                     ("parent", Str (name p));
                     ("calls", Num (float_of_int t.calls.(i).(j)));
                     ("ns", Num (float_of_int t.total_ns.(i).(j)));
                   ]))
          layers)
      layers
  in
  Obj
    [
      ( "self_ns",
        Obj
          (List.map
             (fun l -> (name l, Num (float_of_int t.self_ns.(index l))))
             layers) );
      ("edges", Arr layer_rows);
      ( "spans",
        Arr
          (List.rev_map
             (fun (s : span) ->
               Obj
                 [
                   ("id", Num (float_of_int s.id));
                   ("parent", Num (float_of_int s.parent));
                   ("layer", Str (name s.layer));
                   ("label", Str s.label);
                   ("start_ns", Num (float_of_int s.start_ns));
                   ("stop_ns", Num (float_of_int s.stop_ns));
                 ])
             t.spans) );
    ]
