(** ASCII run diagrams (Figure 1 and the §4 figures' run sketches):
    per-process timelines with labelled operation intervals, scaled to
    a fixed character width. *)

type interval = { proc : int; label : string; start : Rat.t; finish : Rat.t }

val interval : proc:int -> label:string -> start:Rat.t -> finish:Rat.t -> interval

val of_operations :
  label:('inv -> string) ->
  ('inv, 'resp) Sim.Trace.operation list ->
  interval list

val render : n:int -> interval list -> string
(** One row per process (plus a time-scale line), each timeline 100
    columns wide; labels are inscribed
    inside their interval when they fit, otherwise placed on an
    annotation line below. *)
