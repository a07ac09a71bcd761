open Relalg

let c = Alcotest.test_case
let check = Alcotest.check

let r_schema = Schema.make "R" ~key:[ "K" ] [ "K"; "A" ]
let s_schema = Schema.make "S" ~key:[ "L" ] [ "L"; "B" ]
let attr rel n = Attribute.make ~relation:rel n
let k = attr "R" "K"
let a = attr "R" "A"
let l = attr "S" "L"
let b = attr "S" "B"

let i x = Value.Int x

let r =
  Relation.of_rows r_schema
    [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 3; i 30 ] ]

let s =
  Relation.of_rows s_schema
    [ [ i 10; i 100 ]; [ i 20; i 200 ]; [ i 40; i 400 ] ]

let test_of_rows () =
  check Alcotest.int "cardinality" 3 (Relation.cardinality r);
  check Alcotest.(list string) "header order" [ "K"; "A" ]
    (List.map Attribute.name (Relation.header r));
  match Relation.of_rows r_schema [ [ i 1 ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short row accepted"

let test_of_arrays () =
  let arr =
    Relation.of_arrays [ k; a ]
      [| [| i 1; i 10 |]; [| i 2; i 20 |]; [| i 1; Value.Float 10. |] |]
  in
  check Alcotest.int "twin row collapses" 2 (Relation.cardinality arr);
  check Helpers.relation "same instance as of_rows"
    (Relation.of_rows r_schema [ [ i 1; i 10 ]; [ i 2; i 20 ] ])
    arr;
  let refused what header rows =
    match Relation.of_arrays header rows with
    | exception Invalid_argument msg ->
      check Alcotest.bool what true
        (Helpers.contains ~sub:"Relation.of_arrays" msg)
    | _ -> Alcotest.failf "%s accepted" what
  in
  refused "empty header" [] [||];
  refused "repeated attribute" [ k; k ] [||];
  refused "short row" [ k; a ] [| [| i 1 |] |]

let test_set_semantics () =
  let dup = Relation.of_rows r_schema [ [ i 1; i 10 ]; [ i 1; i 10 ] ] in
  check Alcotest.int "duplicates collapse" 1 (Relation.cardinality dup)

let test_project () =
  let p = Relation.project (Attribute.Set.singleton a) r in
  check Alcotest.int "same rows (distinct values)" 3 (Relation.cardinality p);
  check Alcotest.(list string) "header" [ "A" ]
    (List.map Attribute.name (Relation.header p));
  (* Projection can shrink the tuple count. *)
  let dup_vals =
    Relation.of_rows r_schema [ [ i 1; i 10 ]; [ i 2; i 10 ] ]
  in
  check Alcotest.int "duplicate values collapse" 1
    (Relation.cardinality (Relation.project (Attribute.Set.singleton a) dup_vals));
  (match Relation.project (Attribute.Set.singleton l) r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "projection out of header accepted");
  (* Regression: an empty attribute set used to silently build a
     header-less relation whose every downstream use was nonsense; it
     is now a positioned [Invalid_argument]. *)
  match Relation.project Attribute.Set.empty r with
  | exception Invalid_argument msg ->
    check Alcotest.bool "names the operation" true
      (Helpers.contains ~sub:"Relation.project" msg)
  | _ -> Alcotest.fail "empty projection accepted"

let test_select () =
  let p = Predicate.Cmp (a, Predicate.Ge, Const (i 20)) in
  check Alcotest.int "two survive" 2
    (Relation.cardinality (Relation.select p r));
  match Relation.select (Predicate.Cmp (b, Eq, Const (i 1))) r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "predicate out of header accepted"

let test_equi_join () =
  let cond = Joinpath.Cond.eq a l in
  let j = Relation.equi_join cond r s in
  check Alcotest.int "two matches" 2 (Relation.cardinality j);
  check Alcotest.int "header widens" 4 (List.length (Relation.header j));
  (* values joined correctly: K=1 (A=10) matches L=10 (B=100) *)
  let rows = Relation.tuples j in
  let has kk bb =
    List.exists
      (fun t ->
        Value.equal (Tuple.find t k) (i kk) && Value.equal (Tuple.find t b) (i bb))
      rows
  in
  check Alcotest.bool "1-100" true (has 1 100);
  check Alcotest.bool "2-200" true (has 2 200);
  check Alcotest.bool "no 3" false (has 3 400)

let test_equi_join_validation () =
  (match Relation.equi_join (Joinpath.Cond.eq l a) r s with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "mis-sided condition accepted");
  match Relation.equi_join (Joinpath.Cond.eq k l) r r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping headers accepted"

let test_multi_attribute_join () =
  let r2 = Schema.make "R2" ~key:[ "X" ] [ "X"; "Y" ] in
  let s2 = Schema.make "S2" ~key:[ "U" ] [ "U"; "V" ] in
  let rr = Relation.of_rows r2 [ [ i 1; i 2 ]; [ i 1; i 3 ] ] in
  let ss = Relation.of_rows s2 [ [ i 1; i 2 ]; [ i 1; i 9 ] ] in
  let cond =
    Joinpath.Cond.make
      ~left:[ attr "R2" "X"; attr "R2" "Y" ]
      ~right:[ attr "S2" "U"; attr "S2" "V" ]
  in
  check Alcotest.int "only (1,2)" 1
    (Relation.cardinality (Relation.equi_join cond rr ss))

let test_semi_join () =
  let cond = Joinpath.Cond.eq a l in
  let sj = Relation.semi_join cond r s in
  check Alcotest.int "two tuples of r" 2 (Relation.cardinality sj);
  check Alcotest.(list string) "header unchanged" [ "K"; "A" ]
    (List.map Attribute.name (Relation.header sj))

let test_natural_join () =
  (* Shared attribute: project the join result's left part. *)
  let cond = Joinpath.Cond.eq a l in
  let joined = Relation.equi_join cond r s in
  let left_part = Relation.project (Attribute.Set.of_list [ k; a ]) joined in
  let nj = Relation.natural_join left_part r in
  check Alcotest.int "natural join on shared K,A" 2 (Relation.cardinality nj);
  match Relation.natural_join r s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no shared attribute accepted"

let test_union () =
  let r2 = Relation.of_rows r_schema [ [ i 1; i 10 ]; [ i 9; i 90 ] ] in
  check Alcotest.int "union dedups" 4
    (Relation.cardinality (Relation.union r r2));
  match Relation.union r s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incompatible union accepted"

let test_byte_size () =
  check Alcotest.int "3 rows x 2 ints" 48 (Relation.byte_size r)

(* -------------------------------------------------------------- *)
(* Properties: the semi-join protocol identity the engine relies on:
   R ⋈ S = (π_J(R) ⋈ S) natural-join R.                            *)

let arb_pairs = QCheck.(list_of_size Gen.(0 -- 12) (pair (int_bound 5) (int_bound 5)))

let mk_r pairs = Relation.of_rows r_schema (List.map (fun (x, y) -> [ i x; i y ]) pairs)
let mk_s pairs = Relation.of_rows s_schema (List.map (fun (x, y) -> [ i x; i y ]) pairs)

let prop_semijoin_protocol =
  QCheck.Test.make ~name:"semi-join protocol equals direct join" ~count:200
    QCheck.(pair arb_pairs arb_pairs)
    (fun (rp, sp) ->
      QCheck.assume (rp <> [] && sp <> []);
      let r = mk_r rp and s = mk_s sp in
      let cond = Joinpath.Cond.eq a l in
      let direct = Relation.equi_join cond r s in
      let r_j = Relation.project (Attribute.Set.singleton a) r in
      let r_jlr = Relation.equi_join cond r_j s in
      let via_protocol = Relation.natural_join r_jlr r in
      Relation.equal direct via_protocol)

let prop_semijoin_reduces =
  QCheck.Test.make ~name:"semi-join result within operand" ~count:200
    QCheck.(pair arb_pairs arb_pairs)
    (fun (rp, sp) ->
      QCheck.assume (rp <> [] && sp <> []);
      let r = mk_r rp and s = mk_s sp in
      let cond = Joinpath.Cond.eq a l in
      let sj = Relation.semi_join cond r s in
      Relation.cardinality sj <= Relation.cardinality r
      && List.for_all
           (fun t -> List.exists (Tuple.equal t) (Relation.tuples r))
           (Relation.tuples sj))

let prop_join_cardinality_bound =
  QCheck.Test.make ~name:"join within cross-product bound" ~count:200
    QCheck.(pair arb_pairs arb_pairs)
    (fun (rp, sp) ->
      QCheck.assume (rp <> [] && sp <> []);
      let r = mk_r rp and s = mk_s sp in
      let cond = Joinpath.Cond.eq a l in
      Relation.cardinality (Relation.equi_join cond r s)
      <= Relation.cardinality r * Relation.cardinality s)

let suite =
  [
    c "of_rows" `Quick test_of_rows;
    c "of_arrays" `Quick test_of_arrays;
    c "set semantics" `Quick test_set_semantics;
    c "project" `Quick test_project;
    c "select" `Quick test_select;
    c "equi_join" `Quick test_equi_join;
    c "equi_join validation" `Quick test_equi_join_validation;
    c "multi-attribute join" `Quick test_multi_attribute_join;
    c "semi_join" `Quick test_semi_join;
    c "natural_join" `Quick test_natural_join;
    c "union" `Quick test_union;
    c "byte_size" `Quick test_byte_size;
    Helpers.qcheck prop_semijoin_protocol;
    Helpers.qcheck prop_semijoin_reduces;
    Helpers.qcheck prop_join_cardinality_bound;
  ]
