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

(* Allocation counters are integral word counts that fit comfortably
   in 53 bits, so %.0f round-trips them exactly and keeps the encoding
   canonical (no float noise, equal datapoints -> equal bytes). *)
let to_line d =
  Printf.sprintf
    "{\"commit\":\"%s\",\"bench\":\"%s\",\"events\":%d,\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f,\"minor_collections\":%d,\"major_collections\":%d}"
    d.commit d.bench d.events d.minor_words d.promoted_words d.major_words
    d.minor_collections d.major_collections

(* Flat-object field scanner for our own emissions: locate ["key":]
   and read the value up to the next [,] or [}].  Values here are
   unescaped strings (shas, bench names) and numbers, so this is
   exact for every line [to_line] produces. *)
let raw_field line key =
  let marker = "\"" ^ key ^ "\":" in
  let mlen = String.length marker and llen = String.length line in
  let rec find i =
    if i + mlen > llen then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < llen && (match line.[!stop] with ',' | '}' -> false | _ -> true)
      do
        incr stop
      done;
      Some (String.sub line start (!stop - start))

let str_field line key =
  match raw_field line key with
  | Some v
    when String.length v >= 2 && v.[0] = '"' && v.[String.length v - 1] = '"'
    ->
      Some (String.sub v 1 (String.length v - 2))
  | _ -> None

let num_field line key =
  match raw_field line key with
  | Some v -> float_of_string_opt v
  | None -> None

let of_line line =
  match
    ( str_field line "commit",
      str_field line "bench",
      num_field line "events",
      num_field line "minor_words",
      num_field line "promoted_words",
      num_field line "major_words",
      num_field line "minor_collections",
      num_field line "major_collections" )
  with
  | Some commit, Some bench, Some ev, Some mw, Some pw, Some jw, Some mc, Some jc
    ->
      Some
        {
          commit;
          bench;
          events = int_of_float ev;
          minor_words = mw;
          promoted_words = pw;
          major_words = jw;
          minor_collections = int_of_float mc;
          major_collections = int_of_float jc;
        }
  | _ -> None

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

let gate ~baseline ~current ~tolerance =
  let per_event v d = v /. float_of_int (Stdlib.max 1 d.events) in
  let check name base cur =
    let b = per_event base baseline and c = per_event cur current in
    let line =
      Printf.sprintf "%s/event: %.2f -> %.2f (baseline %s)" name b c
        (String.sub baseline.commit 0
           (Stdlib.min 12 (String.length baseline.commit)))
    in
    if c <= b *. (1. +. tolerance) then Ok line else Error line
  in
  match
    ( check "minor_words" baseline.minor_words current.minor_words,
      check "promoted_words" baseline.promoted_words current.promoted_words )
  with
  | Ok a, Ok b -> Ok (a ^ "; " ^ b)
  | Error a, Ok b | Ok b, Error a ->
      Error (Printf.sprintf "REGRESSION %s; %s" a b)
  | Error a, Error b -> Error (Printf.sprintf "REGRESSION %s; REGRESSION %s" a b)
