(* Minimal canonical s-expressions.  See sexp.mli for the format
   contract.  The scenario codec writes atoms with [add_atom], checks
   the syntax with [scan] and decodes fields in place by offset. *)

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

(* Integers are written digit by digit by [Rat]'s one digit writer,
   with no string of their own: scenario renderings and sweep cell keys
   are built for every run. *)
let add_int b n = Rat.add_to_buffer b (Rat.of_int n)

let add_atom b s =
  if not (needs_quoting s) then Buffer.add_string b s
  else begin
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  end

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

exception Parse_error of string

let fail msg pos =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))

(* What each byte does to the scan. *)
let plain = 0 (* may sit in a bare atom *)
let white = 1
let opening = 2
let closing = 3
let quote = 4
let comment = 5

let class_of = function
  | ' ' | '\t' | '\n' | '\r' -> white
  | '(' -> opening
  | ')' -> closing
  | '"' -> quote
  | ';' -> comment
  | _ -> plain

(* [class_of] by byte code, looked up rather than matched so the loops
   over ordinary bytes stay branch-predictable.  A literal, so loading
   the module allocates nothing; checked against [class_of] below. *)
let classes =
  "\000\000\000\000\000\000\000\000\000\001\001\000\000\001\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \001\000\004\000\000\000\000\000\002\003\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\005\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\
   \000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000"

let () =
  for k = 0 to 255 do
    assert (Char.code classes.[k] = class_of (Char.chr k))
  done

(* The class of byte [i] of [s], which must exist. *)
let cls s i = Char.code (String.unsafe_get classes (Char.code s.[i]))

let rec line_end s j =
  if j < String.length s && s.[j] <> '\n' then line_end s (j + 1) else j

(* The first offset at or after [i] outside whitespace and comments. *)
let rec skip s i =
  if i >= String.length s then i
  else
    let k = cls s i in
    if k = white then skip s (i + 1)
    else if k = comment then skip s (line_end s i)
    else i

(* One past a bare atom starting at [i]; [i] itself when [i] holds a
   delimiter. *)
let rec bare_end s i =
  if i < String.length s && cls s i = plain then bare_end s (i + 1) else i

(* One past the quoted atom whose opening quote is at [j] (recursing,
   [j] is the last byte read). *)
let rec quoted_end s j =
  let n = String.length s in
  if j + 1 >= n then fail "unterminated string" n
  else
    match s.[j + 1] with
    | '"' -> j + 2
    | '\\' ->
        if j + 2 >= n then fail "bad escape" (j + 2)
        else (
          match s.[j + 2] with
          | '"' | '\\' | 'n' -> quoted_end s (j + 2)
          | _ -> fail "bad escape" (j + 2))
    | _ -> quoted_end s (j + 1)

(* One past the list opening at [i], found by a byte loop with a depth
   counter: outside quoted atoms and comments, parentheses only ever
   delimit.  [field] gets the offset of each list directly inside it
   once that list has closed, so its contents are already checked. *)
let list_end s i ~field =
  let n = String.length s in
  let depth = ref 1 and j = ref (i + 1) and child = ref i in
  while !depth > 0 do
    while !j < n && cls s !j <= white do
      incr j
    done;
    if !j >= n then fail "unterminated list" n;
    let k = cls s !j in
    if k = opening then begin
      if !depth = 1 then child := !j;
      incr depth;
      incr j
    end
    else if k = closing then begin
      decr depth;
      incr j;
      if !depth = 1 then field !child
    end
    else if k = quote then j := quoted_end s !j
    else (* comment *) j := line_end s !j
  done;
  !j

let scan s ~field =
  match
    let i = skip s 0 in
    if i >= String.length s then fail "unexpected end of input" i;
    let i =
      match s.[i] with
      | ')' -> fail "unexpected ')'" i
      | '(' -> list_end s i ~field
      | '"' -> quoted_end s i
      | _ -> bare_end s i
    in
    let i = skip s i in
    if i <> String.length s then fail "trailing input" i
  with
  | () -> Ok ()
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Reading scanned text                                                *)

let is_list s i = cls s i = opening
let is_close s i = cls s i = closing
let first s i = skip s (i + 1)

let next s i =
  match s.[i] with
  | '(' -> list_end s i ~field:ignore
  | '"' -> quoted_end s i
  | _ -> bare_end s i

let sibling s i = skip s (next s i)

let rec count_from s j acc =
  if is_close s j then acc else count_from s (sibling s j) (acc + 1)

let count s j = count_from s j 0

let atom_at s i =
  match s.[i] with
  | '"' ->
      let b = Buffer.create 16 in
      let j = ref (i + 1) in
      while s.[!j] <> '"' do
        (match s.[!j] with
        | '\\' ->
            incr j;
            Buffer.add_char b (if s.[!j] = 'n' then '\n' else s.[!j])
        | c -> Buffer.add_char b c);
        incr j
      done;
      Buffer.contents b
  | _ -> String.sub s i (bare_end s i - i)

(* [kw] against the unescaped bytes of the quoted atom from [j] on. *)
let rec quoted_is s j kw k =
  match s.[j] with
  | '"' -> k = String.length kw
  | '\\' ->
      let c = if s.[j + 1] = 'n' then '\n' else s.[j + 1] in
      k < String.length kw && kw.[k] = c && quoted_is s (j + 2) kw (k + 1)
  | c -> k < String.length kw && kw.[k] = c && quoted_is s (j + 1) kw (k + 1)

let rec bare_is s i kw k =
  k = String.length kw || (s.[i + k] = kw.[k] && bare_is s i kw (k + 1))

let atom_is s i kw =
  let k = cls s i in
  if k = quote then quoted_is s (i + 1) kw 0
  else
    let m = String.length kw in
    k = plain
    && i + m <= String.length s
    && bare_is s i kw 0
    && (i + m = String.length s || cls s (i + m) <> plain)
