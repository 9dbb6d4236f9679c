type datapoint = {
  commit : string;
  bench : string;
  events : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let of_metrics ~commit ~bench ~events (m : Measure.metrics) =
  {
    commit;
    bench;
    events;
    minor_words = m.minor_words;
    promoted_words = m.promoted_words;
    major_words = m.major_words;
    minor_collections = m.minor_collections;
    major_collections = m.major_collections;
  }

let average = function
  | [] -> Error "no datapoint to average"
  | first :: _ as points -> (
      match List.find_opt (fun p -> p.events <> first.events) points with
      | Some p ->
          Error
            (Printf.sprintf "%s: phases disagree: %d events vs %d" first.bench
               first.events p.events)
      | None ->
          let mean f =
            Float.round
              (List.fold_left (fun acc p -> acc +. f p) 0. points
              /. float_of_int (List.length points))
          in
          Ok
            {
              first with
              promoted_words = mean (fun p -> p.promoted_words);
              major_words = mean (fun p -> p.major_words);
              minor_collections =
                int_of_float (mean (fun p -> float_of_int p.minor_collections));
              major_collections =
                int_of_float (mean (fun p -> float_of_int p.major_collections));
            })

(* Allocation counters are integral word counts that fit comfortably
   in 53 bits, so %.0f round-trips them exactly and keeps the encoding
   canonical (no float noise, equal datapoints -> equal bytes). *)
let to_line ?(extra = []) d =
  let open Core.Json in
  let words w = Fixed (0, w) in
  compact
    (Object
       ([ ("commit", String d.commit); ("bench", String d.bench);
          ("events", Int d.events); ("minor_words", words d.minor_words);
          ("promoted_words", words d.promoted_words);
          ("major_words", words d.major_words);
          ("minor_collections", Int d.minor_collections);
          ("major_collections", Int d.major_collections) ]
       @ extra))

let of_line line =
  let open Core.Json in
  match parse line with
  | Error _ -> None
  | Ok j -> (
      let str k = to_str (member k j) and int k = to_int (member k j) in
      let words k = to_number (member k j) in
      match
        ( str "commit", str "bench", int "events", words "minor_words",
          words "promoted_words", words "major_words",
          int "minor_collections", int "major_collections" )
      with
      | ( Some commit, Some bench, Some events, Some minor_words,
          Some promoted_words, Some major_words, Some minor_collections,
          Some major_collections ) ->
          Some
            { commit; bench; events; minor_words; promoted_words;
              major_words; minor_collections; major_collections }
      | _ -> None)

let load ~file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | line -> (
          match of_line line with
          | Some d -> go (d :: acc)
          | None -> go acc)
      | exception End_of_file -> List.rev acc
    in
    let points = go [] in
    close_in ic;
    points
  end

let upsert ~file d =
  let existing = load ~file in
  let replaced = ref false in
  let points =
    List.map
      (fun p ->
        if p.commit = d.commit && p.bench = d.bench then begin
          replaced := true;
          d
        end
        else p)
      existing
  in
  let points = if !replaced then points else points @ [ d ] in
  Sweep.Journal.mkdir_p (Filename.dirname file);
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  List.iter (fun p -> output_string oc (to_line p ^ "\n")) points;
  close_out oc;
  Sys.rename tmp file

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let pick_baseline ?ref_prefix ~head points =
  let last pred =
    List.fold_left (fun acc p -> if pred p then Some p else acc) None points
  in
  match ref_prefix with
  | Some prefix -> (
      match last (fun p -> starts_with ~prefix p.commit) with
      | Some p -> Ok (Some p)
      | None -> Error (Printf.sprintf "no datapoint for baseline %S" prefix))
  | None -> (
      match last (fun p -> p.commit <> head) with
      | Some p -> Ok (Some p)
      | None -> Ok (last (fun _ -> true)))

(* Per-event [minor_words] and [promoted_words] of [d]. *)
let rates d =
  let per_event v = v /. float_of_int (Stdlib.max 1 d.events) in
  [
    ("minor_words", per_event d.minor_words);
    ("promoted_words", per_event d.promoted_words);
  ]

let tolerance = 0.02

let gate ~recorded ~baseline ~current =
  (* An improvement passes only once a datapoint for it is in the
     history: otherwise the next change is gated against the old
     number and may give the gain back unnoticed. *)
  let improvement_recorded =
    match recorded with
    | None -> false
    | Some r ->
        List.for_all2
          (fun (_, a) (_, b) -> Float.abs (b -. a) <= a *. tolerance)
          (rates r) (rates current)
  in
  let judge (name, b) (_, c) =
    let line =
      Printf.sprintf "%s/event: %.2f -> %.2f (baseline %s)" name b c
        (String.sub baseline.commit 0
           (Stdlib.min 12 (String.length baseline.commit)))
    in
    if c > b *. (1. +. tolerance) then Error ("REGRESSION " ^ line)
    else if c < b *. (1. -. tolerance) && not improvement_recorded then
      Error ("UNRECORDED IMPROVEMENT " ^ line)
    else Ok line
  in
  let results = List.map2 judge (rates baseline) (rates current) in
  let summary =
    String.concat "; " (List.map (function Ok l | Error l -> l) results)
  in
  if List.exists Result.is_error results then Error summary else Ok summary
