open Relalg
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let mk_example () =
  Helpers.check_ok Query.pp_error
    (Query.make M.catalog
       ~select:
         (List.map M.attr [ "Patient"; "Physician"; "Plan"; "HealthAid" ])
       ~base:"Insurance"
       ~joins:
         [
           ("Nat_registry", Joinpath.Cond.eq (M.attr "Holder") (M.attr "Citizen"));
           ("Hospital", Joinpath.Cond.eq (M.attr "Citizen") (M.attr "Patient"));
         ]
       ~where:Predicate.True)

let test_make_ok () =
  let q = mk_example () in
  check Alcotest.(list string) "relations"
    [ "Insurance"; "Nat_registry"; "Hospital" ]
    (Query.relations q);
  check Alcotest.int "join path length" 2 (Joinpath.length (Query.join_path q))

let test_join_orientation_normalised () =
  (* Spelling the second condition backwards must still work. *)
  let q =
    Helpers.check_ok Query.pp_error
      (Query.make M.catalog
         ~select:[ M.attr "Patient" ]
         ~base:"Insurance"
         ~joins:
           [
             ( "Nat_registry",
               Joinpath.Cond.eq (M.attr "Citizen") (M.attr "Holder") );
             ( "Hospital",
               Joinpath.Cond.eq (M.attr "Patient") (M.attr "Citizen") );
           ]
         ~where:Predicate.True)
  in
  List.iter
    (fun (_, cond) ->
      (* After normalisation the right side belongs to the joined
         relation. *)
      check Alcotest.int "one pair" 1 (List.length (Joinpath.Cond.right cond)))
    q.Query.joins

let test_make_errors () =
  (match
     Query.make M.catalog ~select:[] ~base:"Insurance" ~joins:[]
       ~where:Predicate.True
   with
   | Error Query.Empty_select -> ()
   | _ -> Alcotest.fail "empty select accepted");
  (match
     Query.make M.catalog
       ~select:[ M.attr "Holder" ]
       ~base:"Nope" ~joins:[] ~where:Predicate.True
   with
   | Error (Query.Catalog (Catalog.Unknown_relation "Nope")) -> ()
   | _ -> Alcotest.fail "unknown base accepted");
  (match
     Query.make M.catalog
       ~select:[ M.attr "Patient" ]
       ~base:"Insurance" ~joins:[] ~where:Predicate.True
   with
   | Error (Query.Select_out_of_scope _) -> ()
   | _ -> Alcotest.fail "out-of-scope select accepted");
  (match
     Query.make M.catalog
       ~select:[ M.attr "Holder" ]
       ~base:"Insurance" ~joins:[]
       ~where:(Predicate.Cmp (M.attr "Patient", Eq, Const (Value.Int 1)))
   with
   | Error (Query.Where_out_of_scope _) -> ()
   | _ -> Alcotest.fail "out-of-scope where accepted");
  match
    Query.make M.catalog
      ~select:[ M.attr "Holder" ]
      ~base:"Insurance"
      ~joins:
        [
          (* condition relating two relations that are not being joined *)
          ( "Disease_list",
            Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient") );
        ]
      ~where:Predicate.True
  with
  | Error (Query.Join_condition_unrelated _) -> ()
  | _ -> Alcotest.fail "unrelated join condition accepted"

let rec count_op pred (e : Algebra.t) =
  let self = if pred e then 1 else 0 in
  self
  +
  match e with
  | Algebra.Relation _ -> 0
  | Algebra.Project (_, x) | Algebra.Select (_, x) -> count_op pred x
  | Algebra.Join (_, l, r) -> count_op pred l + count_op pred r

let test_projection_pushdown () =
  let q = mk_example () in
  let e = Query.to_algebra q in
  (* Exactly the Figure-2 shape: one pushed projection (Hospital) and
     the root projection; Insurance and Nat_registry need all their
     attributes. *)
  check Alcotest.int "two projections"
    2
    (count_op (function Algebra.Project _ -> true | _ -> false) e);
  check Alcotest.int "no selection" 0
    (count_op (function Algebra.Select _ -> true | _ -> false) e);
  check Alcotest.int "seven nodes" 7 (Algebra.size e)

let test_selection_pushdown () =
  let where =
    Predicate.Cmp (M.attr "Plan", Eq, Const (Value.String "gold"))
  in
  let q =
    Helpers.check_ok Query.pp_error
      (Query.make M.catalog
         ~select:[ M.attr "Patient" ]
         ~base:"Insurance"
         ~joins:
           [
             ( "Hospital",
               Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient") );
           ]
         ~where)
  in
  let pushed = Query.to_algebra q in
  (* The Plan='gold' conjunct lands on the Insurance leaf... *)
  let rec has_select_over_leaf = function
    | Algebra.Select (_, Algebra.Relation s) -> Schema.name s = "Insurance"
    | Algebra.Relation _ -> false
    | Algebra.Project (_, x) | Algebra.Select (_, x) -> has_select_over_leaf x
    | Algebra.Join (_, l, r) -> has_select_over_leaf l || has_select_over_leaf r
  in
  check Alcotest.bool "selection at the leaf" true
    (has_select_over_leaf pushed);
  (* ... and evaluates as the unpushed tree
     π{Patient}(σ[Plan = 'gold'](Insurance ⋈ Hospital)). *)
  let kept =
    Algebra.Project
      ( Attribute.Set.singleton (M.attr "Patient"),
        Algebra.Select
          ( where,
            Algebra.Join
              ( Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient"),
                Algebra.Relation M.insurance,
                Algebra.Relation M.hospital ) ) )
  in
  let lookup schema =
    Option.get (M.instances (Schema.name schema))
  in
  check Helpers.relation "same result"
    (Algebra.eval ~lookup pushed)
    (Algebra.eval ~lookup kept)

let test_cross_relation_predicate_stays_up () =
  let where =
    Predicate.Cmp (M.attr "Holder", Eq, Attr (M.attr "Patient"))
  in
  let q =
    Helpers.check_ok Query.pp_error
      (Query.make M.catalog
         ~select:[ M.attr "Plan" ]
         ~base:"Insurance"
         ~joins:
           [
             ( "Hospital",
               Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient") );
           ]
         ~where)
  in
  let e = Query.to_algebra q in
  (* The cross-relation comparison cannot be pushed to any leaf. *)
  let rec top_selects = function
    | Algebra.Project (_, x) -> top_selects x
    | Algebra.Select (_, _) -> 1
    | _ -> 0
  in
  check Alcotest.int "kept above the join" 1 (top_selects e)

let test_no_root_projection_when_star_like () =
  let q =
    Helpers.check_ok Query.pp_error
      (Query.make M.catalog
         ~select:(Schema.attributes M.insurance)
         ~base:"Insurance" ~joins:[] ~where:Predicate.True)
  in
  match Query.to_algebra q with
  | Algebra.Relation s ->
    check Alcotest.string "bare leaf" "Insurance" (Schema.name s)
  | _ -> Alcotest.fail "expected a bare relation"

let test_pp_sql_like () =
  let q = mk_example () in
  let s = Query.to_string q in
  check Alcotest.bool "mentions SELECT" true
    (String.length s > 0 && String.sub s 0 6 = "SELECT")

(* ------------------------------------------------------------------ *)
(* [Query.canonical] against the [Fmt] rendering it replaced, kept here
   as the reference: SELECT attributes dotted, sorted and deduplicated
   as strings; each join as [Joinpath.Cond.pp] in its own [Fmt.str];
   the WHERE conjuncts as [Predicate.pp], sorted and deduplicated. *)
let fmt_canonical (t : Query.t) =
  let attr a = Fmt.str "%a" Attribute.pp_qualified a in
  let select = List.sort_uniq String.compare (List.map attr t.select) in
  let join (schema, cond) =
    Fmt.str "%s ON %a" (Schema.name schema) Joinpath.Cond.pp cond
  in
  let rec conjuncts = function
    | Predicate.True -> []
    | Predicate.And (p, q) -> conjuncts p @ conjuncts q
    | p -> [ p ]
  in
  let where =
    List.sort_uniq String.compare
      (List.map (Fmt.str "%a" Predicate.pp) (conjuncts t.where))
  in
  Fmt.str "\xcf\x80{%s} %s%s%s"
    (String.concat "," select)
    (Schema.name t.base)
    (String.concat ""
       (List.map (fun j -> " \xe2\x8b\x88 " ^ join j) t.joins))
    (match where with
     | [] -> ""
     | ws -> " \xcf\x83{" ^ String.concat " \xe2\x88\xa7 " ws ^ "}")

(* A chain of four relations, one named past the 64 bytes after which
   [Format] breaks the line before a join condition, and attribute
   names that sort differently bare, dotted and as sets. *)
let canon_names =
  [ "R"; "Rb"; String.make 70 'L'; "R.x" ]

let canon_schema i =
  let name = List.nth canon_names i in
  Schema.make name ~key:[] [ "a"; "b"; "a.b"; "z"; "k" ^ string_of_int i ]

let canon_catalog =
  Catalog.of_list
    (List.mapi
       (fun i _ -> (canon_schema i, Server.make (Printf.sprintf "S%d" i)))
       canon_names)

let gen_canonical_query =
  let open QCheck.Gen in
  let attr_of i =
    let s = canon_schema i in
    map (fun k -> List.nth (Schema.attributes s) k) (int_bound 4)
  in
  let value =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (oneof [ small_signed_int; int ]);
        map (fun f -> Value.Float f)
          (oneof [ float; oneofl [ 0.5; -1e20; 3.0; nan; infinity ] ]);
        map (fun s -> Value.String s) (string_size ~gen:printable (int_bound 6));
      ]
  in
  let cmp = oneofl Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  fun n ->
    let in_scope = int_bound (n - 1) >>= attr_of in
    let atom =
      in_scope >>= fun a ->
      cmp >>= fun c ->
      oneof
        [
          map (fun v -> Predicate.Cmp (a, c, Const v)) value;
          map (fun b -> Predicate.Cmp (a, c, Attr b)) in_scope;
        ]
    in
    let rec pred depth =
      if depth = 0 then atom
      else
        frequency
          [
            (3, atom);
            (1, map2 (fun p q -> Predicate.Or (p, q)) (pred (depth - 1)) (pred (depth - 1)));
            (1, map (fun p -> Predicate.Not p) (pred (depth - 1)));
          ]
    in
    let where =
      int_bound 3 >>= fun k ->
      map Predicate.conj (list_repeat k (pred 2))
    in
    (* JOIN i pairs one or two attributes of relation i with the
       relations before it. *)
    let cond i =
      int_range 1 2 >>= fun pairs ->
      let pair =
        map2 (fun l r -> (l, r)) (int_bound (i - 1) >>= attr_of) (attr_of i)
      in
      map
        (fun ps ->
          ( List.nth canon_names i,
            (List.map fst ps, List.map snd ps) ))
        (list_repeat pairs pair)
    in
    let rec joins i = if i = n then return [] else map2 List.cons (cond i) (joins (i + 1)) in
    map3
      (fun select joins where -> (select, joins, where))
      (list_size (int_range 1 6) in_scope)
      (joins 1) where

let canonical_query_arb =
  QCheck.make
    ~print:(fun q -> Query.to_string q)
    QCheck.Gen.(
      int_range 1 4 >>= gen_canonical_query |> map (fun (select, joins, where) ->
          let joins =
            List.filter_map
              (fun (rel, (left, right)) ->
                match Joinpath.Cond.make ~left ~right with
                | c -> Some (rel, c)
                | exception Invalid_argument _ -> None)
              joins
          in
          Query.make canon_catalog ~select
            ~base:(List.hd canon_names) ~joins ~where)
      >>= function
      | Ok q -> return q
      | Error _ ->
        return
          (Helpers.check_ok Query.pp_error
             (Query.make canon_catalog
                ~select:[ Attribute.make ~relation:"R" "a" ]
                ~base:"R" ~joins:[] ~where:Predicate.True)))

let prop_canonical_matches_fmt =
  QCheck.Test.make ~count:500 ~name:"canonical key = its Fmt rendering"
    canonical_query_arb (fun q ->
      let expected = fmt_canonical q and got = Query.canonical q in
      String.equal expected got
      || QCheck.Test.fail_reportf "expected %S@ got %S" expected got)

(* The generator reaches what the key renders: several conjuncts, [Or],
   [Not], multi-pair conditions, every constant type, and the long
   relation name's line break. *)
let test_canonical_generator_coverage () =
  let rand = Random.State.make [| 17 |] in
  let qs = QCheck.Gen.generate ~rand ~n:500 (QCheck.get_gen canonical_query_arb) in
  let keys = List.map Query.canonical qs in
  let has sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (what, sub) ->
      check Alcotest.bool what true (List.exists (has sub) keys))
    [
      ("several conjuncts", " \xe2\x88\xa7 ");
      ("Or", " OR ");
      ("Not", "NOT ");
      ("multi-pair condition", "\xe2\x9f\xa8(");
      ("NULL constant", " NULL");
      ("string constant", "'");
      ("float constant", ".5");
      ("line break after a long name", " ON \n");
    ];
  check Alcotest.bool "int constants" true
    (List.exists
       (fun (q : Query.t) ->
         let rec ints = function
           | Predicate.Cmp (_, _, Const (Value.Int _)) -> true
           | Predicate.And (p, q) | Predicate.Or (p, q) -> ints p || ints q
           | Predicate.Not p -> ints p
           | _ -> false
         in
         ints q.where)
       qs)

let suite =
  [
    c "make" `Quick test_make_ok;
    c "join conditions normalised" `Quick test_join_orientation_normalised;
    c "make validates" `Quick test_make_errors;
    c "projection pushdown (Figure 2)" `Quick test_projection_pushdown;
    c "selection pushdown" `Quick test_selection_pushdown;
    c "cross-relation predicate stays up" `Quick
      test_cross_relation_predicate_stays_up;
    c "identity projection elided" `Quick test_no_root_projection_when_star_like;
    c "SQL rendering" `Quick test_pp_sql_like;
    Helpers.qcheck prop_canonical_matches_fmt;
    c "canonical differential covers its renderings" `Quick
      test_canonical_generator_coverage;
  ]
