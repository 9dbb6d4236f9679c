(* Priority-queue (extract-max) monitor.

   Order pattern ([pqueue.priority-order], via the shared forced-above
   sweep): an operation observes value [x] as the maximum although a
   strictly larger value is forced present across the observation —
   inserted with response before the observation starts and taken (if
   ever) only after it finishes.

   Certificate: values inserted in a linear extension of the forced
   precedences ({!Sweeps.value_order} with [Prio_order]); the heap
   shape makes the insertion order semantically irrelevant, so the
   scheduler only has to get the takes and peeks (always of the current
   max) and the empty observations into real-time-consistent
   positions. *)

let kind = Spec.Adt_view.Priority_queue

let check (v : Record.view) : Record.outcome =
  match Record.classify ~kind v with
  | Error o -> o
  | Ok classes -> (
      match
        Sweeps.forced_above ~kind ~rule:"pqueue.priority-order"
          ~describe:
            (Printf.sprintf
               "value %d observed as the maximum but larger value %d is \
                forced present")
          ~key:(fun v -> Rat.of_int classes.Record.value.(v))
          ~threshold:(fun c -> Rat.of_int classes.Record.value.(c))
          classes
      with
      | Some o -> o
      | None -> (
          match Record.empty_uncoverable ~kind classes with
          | Some o -> o
          | None -> (
              match Sweeps.value_order ~style:Sweeps.Prio_order classes with
              | None ->
                  Record.Unknown
                    "no insertion order satisfies the forced precedences"
              | Some order ->
                  Schedule.run ~shape:Schedule.Priority_shape classes ~order)))
