(** ASCII run diagrams (Figure 1 and the §4 figures' run sketches).

    Renders per-process timelines with labelled operation intervals,
    scaled to a fixed character width.  Used by the bench to regenerate
    the figures from actual runs of the algorithm. *)

type interval = { proc : int; label : string; start : Rat.t; finish : Rat.t }

let interval ~proc ~label ~start ~finish = { proc; label; start; finish }

let of_operations ~label ops =
  List.map
    (fun (op : ('inv, 'resp) Sim.Trace.operation) ->
      {
        proc = op.proc;
        label = label op.inv;
        start = op.inv_time;
        finish = op.resp_time;
      })
    ops

let width = 100 (* columns a timeline is scaled to *)

let render ~n intervals =
  let buffer = Buffer.create 1024 in
  match intervals with
  | [] -> "(empty run)"
  | _ ->
      let t0 = Rat.min_list (List.map (fun i -> i.start) intervals) in
      let t1 = Rat.max_list (List.map (fun i -> i.finish) intervals) in
      let span = Rat.sub t1 t0 in
      let span = if Rat.is_zero span then Rat.one else span in
      let column t =
        let frac = Rat.div (Rat.sub t t0) span in
        let c = Rat.to_float frac *. float_of_int (width - 1) in
        Stdlib.max 0 (Stdlib.min (width - 1) (int_of_float c))
      in
      for proc = 0 to n - 1 do
        let line = Bytes.make width '.' in
        let labels = ref [] in
        List.iter
          (fun i ->
            if i.proc = proc then begin
              let a = column i.start and b = column i.finish in
              let b = Stdlib.max b (a + 1) in
              Bytes.set line a '[';
              if b < width then Bytes.set line b ']';
              for c = a + 1 to Stdlib.min (b - 1) (width - 1) do
                Bytes.set line c '='
              done;
              (* Inscribe the label inside the interval if it fits. *)
              let label = i.label in
              let avail = b - a - 1 in
              if String.length label <= avail then
                Bytes.blit_string label 0 line (a + 1) (String.length label)
              else labels := (a, label) :: !labels
            end)
          intervals;
        Buffer.add_string buffer (Printf.sprintf "p%-2d |" proc);
        Buffer.add_bytes buffer line;
        Buffer.add_char buffer '\n';
        (* Overflowing labels on a separate annotation line. *)
        List.iter
          (fun (a, label) ->
            Buffer.add_string buffer
              (Printf.sprintf "    |%s^ %s\n" (String.make a ' ') label))
          (List.rev !labels)
      done;
      let time_line =
        Printf.sprintf "    t in [%s, %s]" (Rat.to_string t0)
          (Rat.to_string t1)
      in
      Buffer.add_string buffer time_line;
      Buffer.contents buffer
