open Relalg

let check = Alcotest.check
let c = Alcotest.test_case

let test_compare_same_type () =
  check Alcotest.bool "int order" true (Value.compare (Int 1) (Int 2) < 0);
  check Alcotest.bool "string order" true
    (Value.compare (String "a") (String "b") < 0);
  check Alcotest.bool "float order" true
    (Value.compare (Float 1.5) (Float 1.25) > 0);
  check Alcotest.bool "bool order" true
    (Value.compare (Bool false) (Bool true) < 0);
  check Alcotest.int "null eq" 0 (Value.compare Null Null)

let test_compare_numeric_mix () =
  check Alcotest.int "int = float" 0 (Value.compare (Int 2) (Float 2.0));
  check Alcotest.bool "int < float" true
    (Value.compare (Int 2) (Float 2.5) < 0);
  check Alcotest.bool "float > int" true
    (Value.compare (Float 2.5) (Int 2) > 0)

let test_compare_cross_type () =
  (* Fixed type ranks: Null < Bool < Int/Float < String. *)
  check Alcotest.bool "null < bool" true (Value.compare Null (Bool false) < 0);
  check Alcotest.bool "bool < int" true (Value.compare (Bool true) (Int 0) < 0);
  check Alcotest.bool "int < string" true
    (Value.compare (Int 999) (String "") < 0)

(* Regression: Int-vs-Float comparison used to go through
   [float_of_int], which collapses distinct integers above 2^53 onto
   the same float — e.g. 2^53 and 2^53 + 1 both compared equal to
   [Float 9007199254740992.]. The comparison is now exact. *)
let test_compare_precision () =
  let two_53 = 9_007_199_254_740_992 in
  let f = Value.Float 9007199254740992.0 in
  check Alcotest.int "2^53 = float 2^53" 0 (Value.compare (Int two_53) f);
  check Alcotest.bool "2^53 + 1 > float 2^53" true
    (Value.compare (Int (two_53 + 1)) f > 0);
  check Alcotest.bool "float 2^53 < 2^53 + 1" true
    (Value.compare f (Int (two_53 + 1)) < 0);
  check Alcotest.bool "2^53 - 1 < float 2^53" true
    (Value.compare (Int (two_53 - 1)) f < 0);
  (* The int range ends at 2^62 - 1; floats at and beyond 2^62 (which
     is what [float_of_int max_int] rounds up to) dominate every int,
     and [min_int] = -2^62 is exactly representable. *)
  check Alcotest.bool "max_int < float 2^62" true
    (Value.compare (Int max_int) (Float (float_of_int max_int)) < 0);
  check Alcotest.int "min_int = float -2^62" 0
    (Value.compare (Int min_int) (Float (float_of_int min_int)));
  check Alcotest.bool "min_int > float -2^63" true
    (Value.compare (Int min_int) (Float (-9.223372036854775808e18)) > 0);
  (* Non-finite floats sit at the numeric extremes; nan below all. *)
  check Alcotest.bool "int < inf" true
    (Value.compare (Int max_int) (Float infinity) < 0);
  check Alcotest.bool "int > -inf" true
    (Value.compare (Int min_int) (Float neg_infinity) > 0);
  check Alcotest.bool "int > nan" true
    (Value.compare (Int min_int) (Float nan) > 0)

let test_equal_hash_compatible () =
  let pairs =
    [ (Value.Int 3, Value.Float 3.0); (Int 7, Int 7); (Int 0, Float (-0.)) ]
  in
  List.iter
    (fun (a, b) ->
      check Alcotest.bool "equal" true (Value.equal a b);
      check Alcotest.int "hash agrees" (Value.hash a) (Value.hash b);
      check Alcotest.int "key_hash agrees" (Value.key_hash a)
        (Value.key_hash b))
    pairs

let test_of_literal () =
  check Helpers.value "null" Null (Value.of_literal "NULL");
  check Helpers.value "null lc" Null (Value.of_literal "null");
  check Helpers.value "true" (Bool true) (Value.of_literal "true");
  check Helpers.value "int" (Int 42) (Value.of_literal "42");
  check Helpers.value "neg int" (Int (-3)) (Value.of_literal "-3");
  check Helpers.value "float" (Float 2.5) (Value.of_literal "2.5");
  check Helpers.value "quoted" (String "a b") (Value.of_literal "'a b'");
  check Helpers.value "bare word" (String "hello") (Value.of_literal "hello");
  check Helpers.value "trimmed" (Int 7) (Value.of_literal "  7  ")

let test_byte_width () =
  check Alcotest.int "null" 1 (Value.byte_width Null);
  check Alcotest.int "bool" 1 (Value.byte_width (Bool true));
  check Alcotest.int "int" 8 (Value.byte_width (Int 5));
  check Alcotest.int "float" 8 (Value.byte_width (Float 5.0));
  check Alcotest.int "string" 5 (Value.byte_width (String "abcde"))

let test_type_name () =
  check Alcotest.string "int" "int" (Value.type_name (Int 1));
  check Alcotest.string "null" "null" (Value.type_name Null)

let test_pp () =
  check Alcotest.string "string quoted" "'x'" (Value.to_string (String "x"));
  check Alcotest.string "null caps" "NULL" (Value.to_string Null)

(* Deliberately boundary-heavy: integers around 2^52/2^53 and the int
   range ends, floats that are images of those integers, non-finite
   floats and -0. — the inputs the exact Int/Float comparison must
   order consistently. *)
let arb_value =
  let two_52 = 4_503_599_627_370_496 and two_53 = 9_007_199_254_740_992 in
  let boundary_ints =
    [
      0; 1; -1; two_52; two_52 + 1; -two_52; two_53; two_53 + 1; two_53 - 1;
      -two_53; -two_53 - 1; max_int; max_int - 1; min_int; min_int + 1;
    ]
  in
  QCheck.(
    oneof
      [
        always Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun i -> Value.Int i) (oneofl boundary_ints);
        map (fun i -> Value.Float (float_of_int i)) (oneofl boundary_ints);
        map (fun f -> Value.Float f) (float_bound_exclusive 1000.0);
        oneofl
          [
            Value.Float infinity;
            Value.Float neg_infinity;
            Value.Float nan;
            Value.Float (-0.);
          ];
        map (fun s -> Value.String s) small_printable_string;
      ])

(* A value and its other-constructor image: [Float (float_of_int i)]
   for [Int i], [Int (Float.to_int f)] for an integral [Float f] in the
   int range; any other value paired with itself. Equal exactly when
   the conversion is exact (2^53 + 1 and max_int are not), so most of
   these pairs pass the [assume] that independent pairs almost never
   pass. *)
let arb_twins =
  QCheck.map
    (fun v ->
      ( v,
        match (v : Value.t) with
        | Int i -> Value.Float (float_of_int i)
        | Float f
          when Float.is_integer f && Float.abs f < 4.611686018427387904e18 ->
          Value.Int (Float.to_int f)
        | v -> v ))
    arb_value

let sign c = compare c 0

let prop_compare_antisym =
  QCheck.Test.make ~name:"value compare antisymmetric" ~count:2000
    QCheck.(pair arb_value arb_value)
    (fun (a, b) -> sign (Value.compare a b) = -sign (Value.compare b a))

let prop_compare_refl =
  QCheck.Test.make ~name:"value compare reflexive" ~count:500 arb_value
    (fun a -> Value.compare a a = 0)

let prop_compare_trans =
  QCheck.Test.make ~name:"value compare transitive" ~count:2000
    QCheck.(triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      (* Sort the triple by [compare]; a lawful total order must then
         order the extremes consistently. *)
      let a, b = if Value.compare a b <= 0 then (a, b) else (b, a) in
      let b, c = if Value.compare b c <= 0 then (b, c) else (c, b) in
      let a = if Value.compare a b <= 0 then a else b in
      Value.compare a c <= 0)

let prop_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally" ~count:2000
    QCheck.(oneof [ pair arb_value arb_value; arb_twins ])
    (fun (a, b) ->
      QCheck.assume (Value.equal a b);
      Value.hash a = Value.hash b && Value.key_hash a = Value.key_hash b)

let suite =
  [
    c "compare within types" `Quick test_compare_same_type;
    c "compare int/float numerically" `Quick test_compare_numeric_mix;
    c "compare across types by rank" `Quick test_compare_cross_type;
    c "compare int/float exactly above 2^53" `Quick test_compare_precision;
    c "equal implies same hash" `Quick test_equal_hash_compatible;
    c "of_literal" `Quick test_of_literal;
    c "byte_width" `Quick test_byte_width;
    c "type_name" `Quick test_type_name;
    c "pretty-printing" `Quick test_pp;
    Helpers.qcheck prop_compare_antisym;
    Helpers.qcheck prop_compare_refl;
    Helpers.qcheck prop_compare_trans;
    Helpers.qcheck prop_equal_hash;
  ]
