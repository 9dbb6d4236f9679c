type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | Sig of float
  | String of string
  | List of t list
  | Object of (string * t) list

let nullable f = function None -> Null | Some x -> f x
let optional key f = function None -> [] | Some x -> [ (key, f x) ]

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Printf.bprintf b "\\%c" c
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* [sep] goes between items, [colon] between a key and its value. *)
let rec write b ~sep ~colon v =
  let items add =
    List.iteri (fun i x -> if i > 0 then Buffer.add_string b sep; add x)
  in
  let finite f =
    if not (Float.is_finite f) then
      invalid_arg (Printf.sprintf "Json: %g is not a JSON number" f)
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Fixed (decimals, f) -> finite f; Printf.bprintf b "%.*f" decimals f
  | Sig f -> finite f; Printf.bprintf b "%g" f
  | String s -> add_quoted b s
  | List l ->
      Buffer.add_char b '[';
      items (write b ~sep ~colon) l;
      Buffer.add_char b ']'
  | Object l ->
      let field (k, x) =
        add_quoted b k;
        Buffer.add_string b colon;
        write b ~sep ~colon x
      in
      Buffer.add_char b '{';
      items field l;
      Buffer.add_char b '}'

let layout ~sep ~colon v =
  let b = Buffer.create 256 in
  write b ~sep ~colon v;
  Buffer.contents b

let compact = layout ~sep:"," ~colon:":"
let spaced = layout ~sep:", " ~colon:": "

exception Bad of string

let parse s =
  let pos = ref 0 and n = String.length s in
  let fail what = raise (Bad (Printf.sprintf "byte %d: %s" !pos what)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if String.contains " \t\n\r" (peek ()) then (incr pos; skip ())
  in
  let eat c =
    skip ();
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let scan chars =
    let start = !pos in
    while String.contains chars (peek ()) do incr pos done;
    String.sub s start (!pos - start)
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos; Buffer.contents b
      | '\\' when !pos + 1 < n ->
          pos := !pos + 2;
          (match s.[!pos - 1] with
          | 'u' when !pos + 4 <= n -> (
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some u when Uchar.is_valid u ->
                  pos := !pos + 4;
                  Buffer.add_utf_8_uchar b (Uchar.of_int u)
              | _ -> fail "bad or surrogate \\u escape")
          | c -> (
              (* each two-character escape sits above the byte it means *)
              match String.index_opt "\"\\/bfnrt" c with
              | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
              | None -> fail "bad escape"));
          go ()
      | c when c < ' ' -> fail "unescaped control byte or end of input"
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ()
  in
  (* A fraction without an exponent keeps its decimals, so every number
     this module prints reads back to a value that prints the same. *)
  let number () =
    let lit = scan "+-.0123456789eE" in
    let exponent = String.contains lit 'e' || String.contains lit 'E' in
    let dot = String.index_opt lit '.' in
    match (int_of_string_opt lit, float_of_string_opt lit, dot) with
    | Some i, _, _ -> Int i
    | None, Some f, Some d when not exponent ->
        Fixed (String.length lit - d - 1, f)
    | None, Some f, _ -> Sig f
    | None, None, _ -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' -> incr pos; Object (elements '}' field)
    | '[' -> incr pos; List (elements ']' value)
    | '"' -> String (string ())
    | '-' | '0' .. '9' -> number ()
    | _ -> (
        match scan "aeflnrstu" with
        | "true" -> Bool true
        | "false" -> Bool false
        | "null" -> Null
        | _ -> fail "expected a value")
  and field () =
    let k = string () in
    eat ':';
    (k, value ())
  and elements : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip ();
    let rec go acc =
      let acc = item () :: acc in
      skip ();
      if peek () = ',' then (incr pos; go acc) else (eat close; List.rev acc)
    in
    if peek () = close then (incr pos; []) else go []
  in
  match value () with
  | v ->
      skip ();
      if !pos = n then Ok v
      else Error (Printf.sprintf "byte %d: trailing bytes" !pos)
  | exception Bad m -> Error m

let member key = function
  | Object fields -> Option.value (List.assoc_opt key fields) ~default:Null
  | _ -> Null

let to_str = function String s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_number = function
  | Int i -> Some (float_of_int i)
  | Fixed (_, f) | Sig f -> Some f
  | _ -> None
