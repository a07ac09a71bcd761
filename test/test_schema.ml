open Relalg

let c = Alcotest.test_case
let check = Alcotest.check

let test_make_ok () =
  let s = Schema.make "R" ~key:[ "K" ] [ "K"; "A"; "B" ] in
  check Alcotest.string "name" "R" (Schema.name s);
  check Alcotest.int "arity" 3 (Schema.arity s);
  check Alcotest.(list string) "attribute order preserved" [ "K"; "A"; "B" ]
    (List.map Attribute.name (Schema.attributes s));
  check Alcotest.(list string) "key" [ "K" ]
    (List.map Attribute.name (Schema.key s))

let test_make_errors () =
  let raises msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  raises "duplicate attr" (fun () ->
      Schema.make "R" ~key:[] [ "A"; "A" ]);
  raises "empty attrs" (fun () -> Schema.make "R" ~key:[] []);
  raises "key not in attrs" (fun () ->
      Schema.make "R" ~key:[ "Z" ] [ "A" ]);
  raises "empty name" (fun () -> Schema.make "" ~key:[] [ "A" ])

let test_attribute_lookup () =
  let s = Schema.make "R" ~key:[ "K" ] [ "K"; "A" ] in
  check Alcotest.(option Helpers.attribute) "found"
    (Some (Attribute.make ~relation:"R" "A"))
    (Schema.attribute s "A");
  check Alcotest.(option Helpers.attribute) "missing" None
    (Schema.attribute s "Z");
  check Alcotest.bool "mem own" true
    (Schema.mem s (Attribute.make ~relation:"R" "A"));
  check Alcotest.bool "mem foreign" false
    (Schema.mem s (Attribute.make ~relation:"S" "A"))

let test_pp_marks_key () =
  let s = Schema.make "R" ~key:[ "K" ] [ "K"; "A" ] in
  check Alcotest.string "key starred" "R(K*, A)" (Schema.to_string s)

let test_attribute_set () =
  let s = Schema.make "R" ~key:[] [ "B"; "A" ] in
  check Helpers.attribute_set "set"
    (Attribute.Set.of_names ~relation:"R" [ "A"; "B" ])
    (Schema.attribute_set s);
  (* Built once, in [make]: every caller shares the one value, base
     profiles and instance headers included. *)
  check Alcotest.bool "kept" true
    (Schema.attribute_set s == Schema.attribute_set s);
  check Alcotest.bool "the base profile's pi" true
    ((Authz.Profile.of_base s).pi == Schema.attribute_set s);
  check Alcotest.bool "an instance's header" true
    (Relation.attribute_set (Relation.of_rows s []) == Schema.attribute_set s)

let suite =
  [
    c "make" `Quick test_make_ok;
    c "make validates" `Quick test_make_errors;
    c "attribute lookup" `Quick test_attribute_lookup;
    c "pp marks primary key" `Quick test_pp_marks_key;
    c "attribute_set" `Quick test_attribute_set;
  ]
