(* Tests for Core.Json: the two layouts, the refusal of a float JSON
   cannot hold, and the reader's round trip and refusals. *)

open Core.Json

let sample =
  Object
    [
      ("s", String "a\"b\\c\n\x01\xc3\xa9");
      ("n", Null);
      ("b", Bool false);
      ("i", Int (-3));
      ("f", Fixed (3, 1.5));
      ("g", Sig 1e-7);
      ("l", List [ Int 1; Object [] ]);
    ]

let test_layouts () =
  Alcotest.(check string) "compact"
    {|{"s":"a\"b\\c\n\u0001é","n":null,"b":false,"i":-3,"f":1.500,"g":1e-07,"l":[1,{}]}|}
    (compact sample);
  Alcotest.(check string) "spaced"
    {|{"s": "a\"b\\c\n\u0001é", "n": null, "b": false, "i": -3, "f": 1.500, "g": 1e-07, "l": [1, {}]}|}
    (spaced sample)

(* A nan or infinite float is refused by name, never printed as the
   [inf] or [nan] that no JSON reader accepts. *)
let test_non_finite_refused () =
  List.iter
    (fun v ->
      match compact (Object [ ("x", v) ]) with
      | s -> Alcotest.failf "printed %s" s
      | exception Invalid_argument m ->
          Alcotest.(check bool) m true (String.starts_with ~prefix:"Json: " m))
    [ Sig Float.infinity; Sig Float.nan; Fixed (0, Float.neg_infinity) ]

let test_reads_back () =
  Alcotest.(check bool) "compact" true (parse (compact sample) = Ok sample);
  Alcotest.(check bool) "spaced" true (parse (spaced sample) = Ok sample);
  Alcotest.(check bool) "escapes" true
    (parse {| [ "\/\b\f\u00e9\u00e8" , 12e2 ] |}
    = Ok (List [ String "/\b\012\xc3\xa9\xc3\xa8"; Sig 1200. ]))

let test_refusals () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Result.is_error (parse s)))
    [
      ""; "{"; "[1,]"; {|{"a" 1}|}; "-"; "1e"; "tru"; "nan"; "-inf"; {|"a|};
      "\"\x01\""; {|"\x"|}; {|"\ud800"|}; "1 2"; "{} x";
    ]

let () =
  Alcotest.run "json"
    [
      ( "printer",
        [
          Alcotest.test_case "two layouts" `Quick test_layouts;
          Alcotest.test_case "non-finite floats refused" `Quick
            test_non_finite_refused;
        ] );
      ( "reader",
        [
          Alcotest.test_case "reads back what it prints" `Quick test_reads_back;
          Alcotest.test_case "refuses what is no JSON" `Quick test_refusals;
        ] );
    ]
