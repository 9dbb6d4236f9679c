(* LIFO stack monitor.

   Order pattern ([stack.lifo-order], via the shared forced-above
   sweep): an operation observes value [u] at the top although some
   value [v] — pushed strictly after [u] (finish of push u < start of
   push v) and inside the stack across the whole observation — is
   forced to sit above it.

   Certificate: values pushed in a linear extension of the forced
   precedences ({!Sweeps.value_order} with [Push_order]: put intervals
   and gone-before-put pairs); the scheduler's unblock deadlines let an
   urgent pop pull its push forward past slower top activity. *)

let kind = Spec.Adt_view.Stack

let check (v : Record.view) : Record.outcome =
  match Record.classify ~kind v with
  | Error o -> o
  | Ok classes -> (
      let put = classes.Record.put in
      match
        Sweeps.forced_above ~kind ~rule:"stack.lifo-order"
          ~describe:
            (Printf.sprintf
               "value %d observed at the top but value %d is forced above it")
          ~key:(fun u -> v.start.(put.(u)))
          ~threshold:(fun c -> v.finish.(put.(c)))
          classes
      with
      | Some o -> o
      | None -> (
          match Record.empty_uncoverable ~kind classes with
          | Some o -> o
          | None -> (
              match Sweeps.value_order ~style:Sweeps.Push_order classes with
              | None ->
                  Record.Unknown
                    "no insertion order satisfies the forced precedences"
              | Some order ->
                  Schedule.run ~shape:Schedule.Stack_shape classes ~order)))
