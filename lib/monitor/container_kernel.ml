(* Container monitor: one kernel for the FIFO queue, the LIFO stack and
   the priority queue (extract-max).  The three shapes differ only in
   where their access point sits — head, top or maximum — and share one
   pipeline:

   1. {!Record.classify}: the value classes, and the per-value patterns
      every container shares (fresh, repeat, before-put, after-take);
   2. the shape's order pattern (below): an operation observes value
      [x] at the access point although some other value is forced to
      be there ahead of it;
   3. {!Record.empty_uncoverable}: an empty observation while some
      value is forced present;
   4. the certificate: the values inserted in a linear extension of the
      precedences real time forces ({!Sweeps.value_order}), replayed
      against the shape by the lazy-insertion scheduler
      ({!Schedule.run}).

   An untaken value forced ahead of an observed one is exactly an
   order-pattern hit, so reaching the scheduler means no such pair
   exists. *)

module V = Spec.Adt_view

(* The order patterns, one per shape:
   - [queue.fifo-order] (HSV VOrd aspect, {!Sweeps.queue_fifo}): value
     [u], forced enqueued before [v], must be dequeued before any
     observation of [v] at the head;
   - [stack.lifo-order]: an operation observes [u] at the top although
     some value pushed strictly after [u] (finish of push u < start of
     its push), and inside the stack across the whole observation, is
     forced above it;
   - [pqueue.priority-order]: an operation observes [x] as the maximum
     although a strictly larger value is forced present across the
     observation.
   The last two are one sweep ({!Sweeps.forced_above}) over a different
   key: the start of the push, or the priority itself. *)
let order_pattern ~kind (cl : Record.classes) =
  match kind with
  | V.Queue -> Sweeps.queue_fifo ~kind cl
  | V.Stack ->
      Sweeps.forced_above ~kind ~rule:"stack.lifo-order"
        ~describe:(fun x y ->
          Printf.sprintf
            "value %d observed at the top but value %d is forced above it" x
            y)
        ~key:(fun (cl : Record.classes) u -> cl.view.start.(cl.put.(u)))
        ~threshold:(fun (cl : Record.classes) c -> cl.view.finish.(cl.put.(c)))
        cl
  | V.Priority_queue ->
      Sweeps.forced_above ~kind ~rule:"pqueue.priority-order"
        ~describe:(fun x y ->
          Printf.sprintf
            "value %d observed as the maximum but larger value %d is forced \
             present"
            x y)
        ~key:(fun (cl : Record.classes) u -> Rat.of_int cl.value.(u))
        ~threshold:(fun (cl : Record.classes) c -> Rat.of_int cl.value.(c))
        cl
  | V.Register | V.Set ->
      invalid_arg
        ("Container_kernel.check: " ^ V.kind_to_string kind
       ^ " is not a container")

let check ~kind (v : Record.view) : Record.outcome =
  match Record.classify ~kind v with
  | Error o -> o
  | Ok classes -> (
      match order_pattern ~kind classes with
      | Some o -> o
      | None -> (
          match Record.empty_uncoverable ~kind classes with
          | Some o -> o
          | None -> (
              match Sweeps.value_order ~kind classes with
              | None ->
                  Record.Unknown
                    (lazy "no insertion order satisfies the forced precedences")
              | Some order -> Schedule.run ~kind classes ~order)))
