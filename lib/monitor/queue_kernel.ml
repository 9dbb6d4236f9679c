(* FIFO queue monitor: necessary patterns (per-value, FIFO order,
   empty coverage), then a greedy certificate.

   The insertion order for the certificate is a linear extension of
   every precedence real time forces on it ({!Sweeps.value_order} with
   [Fifo_order]: the put intervals, the head-phase intervals, and
   gone-before-put pairs), preferring earliest-observed values first so
   untaken values trail the taken ones — an untaken value forced ahead
   of an observed one is exactly the [queue.fifo-order] pattern, so
   reaching the scheduler means no such pair exists. *)

let kind = Spec.Adt_view.Queue

let check (v : Record.view) : Record.outcome =
  match Record.classify ~kind v with
  | Error o -> o
  | Ok classes -> (
      match Sweeps.queue_fifo ~kind classes with
      | Some o -> o
      | None -> (
          match Record.empty_uncoverable ~kind classes with
          | Some o -> o
          | None -> (
              match Sweeps.value_order ~style:Sweeps.Fifo_order classes with
              | None ->
                  Record.Unknown
                    "no insertion order satisfies the forced precedences"
              | Some order ->
                  Schedule.run ~shape:Schedule.Queue_shape classes ~order)))
