(* Minimal canonical s-expressions.  See sexp.mli for the format
   contract; everything here exists to make [to_string] a canonical
   injection so scenario equality can be tested byte-for-byte. *)

type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> true
         | c -> Char.code c < 0x20)
       s

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let atom_to_string s = if needs_quoting s then escape s else s

let rec add_sexp b = function
  | Atom s -> Buffer.add_string b (atom_to_string s)
  | List l ->
      Buffer.add_char b '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ' ';
          add_sexp b x)
        l;
      Buffer.add_char b ')'

let to_string t =
  let b = Buffer.create 256 in
  add_sexp b t;
  Buffer.contents b

(* Human layout: only the outermost list breaks across lines — one
   child per line, indented — which keeps the rendering trivially
   canonical while making scenario files diffable. *)
let to_string_hum t =
  match t with
  | Atom _ -> to_string t
  | List l ->
      let b = Buffer.create 512 in
      Buffer.add_char b '(';
      List.iteri
        (fun i x ->
          if i = 0 then add_sexp b x
          else (
            Buffer.add_string b "\n  ";
            add_sexp b x))
        l;
      Buffer.add_string b ")\n";
      Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of string

(* The scan reads [s] by index and allocates nothing per character,
   only the atoms and lists it returns.  [pos] is the next unread byte;
   every error names it. *)
let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | ';' ->
          (* comment to end of line *)
          while !pos < n && s.[!pos] <> '\n' do
            incr pos
          done;
          skip_ws ()
      | _ -> ()
  in
  let parse_quoted () =
    incr pos;
    (* opening quote *)
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (if !pos >= n then error "bad escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | 'n' -> Buffer.add_char b '\n'
           | _ -> error "bad escape");
          incr pos;
          loop ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          loop ()
    in
    loop ();
    Atom (Buffer.contents b)
  in
  (* At a byte that starts no list, string or comment, so the atom is
     at least one byte long. *)
  let parse_bare () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
      | _ -> true
    do
      incr pos
    done;
    Atom (String.sub s start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    if !pos >= n then error "unexpected end of input";
    match s.[!pos] with
    | '(' ->
        incr pos;
        let rec items acc =
          skip_ws ();
          if !pos >= n then error "unterminated list";
          if s.[!pos] = ')' then begin
            incr pos;
            List (List.rev acc)
          end
          else items (parse_one () :: acc)
        in
        items []
    | ')' -> error "unexpected ')'"
    | '"' -> parse_quoted ()
    | _ -> parse_bare ()
  in
  match
    let v = parse_one () in
    skip_ws ();
    if !pos <> n then error "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Decoding helpers                                                    *)

let field key = function
  | Atom _ -> None
  | List children ->
      List.find_map
        (function
          | List (Atom k :: rest) when k = key -> Some (List rest)
          | _ -> None)
        children

let one = function
  | List [ v ] -> Ok v
  | List _ -> Error "expected a single value"
  | Atom _ -> Error "expected a list"

let as_atom = function
  | Atom s -> Ok s
  | List _ -> Error "expected atom"

let as_list = function
  | List l -> Ok l
  | Atom _ -> Error "expected list"

let as_int t =
  match as_atom t with
  | Error _ as e -> e
  | Ok s -> ( match int_of_string_opt s with Some i -> Ok i | None -> Error ("bad int: " ^ s))

let rat_of_string s =
  match String.index_opt s '/' with
  | None -> ( match int_of_string_opt s with Some i -> Some (Rat.of_int i) | None -> None)
  | Some i -> (
      let num = String.sub s 0 i and den = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt num, int_of_string_opt den) with
      | Some n, Some d when d <> 0 -> Some (Rat.make n d)
      | _ -> None)

let as_rat t =
  match as_atom t with
  | Error _ as e -> e
  | Ok s -> ( match rat_of_string s with Some r -> Ok r | None -> Error ("bad rational: " ^ s))

let as_float t =
  match as_atom t with
  | Error _ as e -> e
  | Ok s -> ( match float_of_string_opt s with Some f -> Ok f | None -> Error ("bad float: " ^ s))

let as_bool t =
  match as_atom t with
  | Error _ as e -> e
  | Ok "true" -> Ok true
  | Ok "false" -> Ok false
  | Ok s -> Error ("bad bool: " ^ s)

let of_rat r = Atom (Rat.to_string r)
let of_int i = Atom (string_of_int i)

let of_float f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then Atom s else Atom (Printf.sprintf "%h" f)

let of_bool b = Atom (if b then "true" else "false")
