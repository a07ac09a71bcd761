open Relalg
open Planner
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let model = Cost.uniform ~card:100.0

let test_orders_of_example () =
  let q = M.example_query () in
  let orders = Optimizer.valid_orders q in
  (* Original first. *)
  check Alcotest.(list string) "original first"
    [ "Insurance"; "Nat_registry"; "Hospital" ]
    (List.hd orders);
  (* Chain Insurance–Nat_registry–Hospital: connected orders are the
     walks of a path graph: 2 ends x forward + center-start x 2 = 4. *)
  check Alcotest.int "four connected orders" 4 (List.length orders);
  (* All are permutations. *)
  List.iter
    (fun order ->
      check Alcotest.(list string) "permutation"
        [ "Hospital"; "Insurance"; "Nat_registry" ]
        (List.sort compare order))
    orders

let test_single_relation_order () =
  let q =
    Helpers.check_ok Query.pp_error
      (Query.make M.catalog
         ~select:[ M.attr "Holder" ]
         ~base:"Insurance" ~joins:[] ~where:Predicate.True)
  in
  check Alcotest.(list (list string)) "just the base" [ [ "Insurance" ] ]
    (Optimizer.valid_orders q)

let test_reorder_same_results () =
  (* Every valid order computes the same answer. *)
  let q = M.example_query () in
  let reference =
    Distsim.Engine.centralized ~instances:M.instances (Query.to_plan q)
  in
  List.iter
    (fun order ->
      let q' = Optimizer.reorder q order in
      let result =
        Distsim.Engine.centralized ~instances:M.instances (Query.to_plan q')
      in
      check Helpers.relation
        (String.concat "," order)
        reference result)
    (Optimizer.valid_orders q)

let test_reorder_validation () =
  let q = M.example_query () in
  (match Optimizer.reorder q [ "Insurance" ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "non-permutation accepted");
  match
    (* Hospital does not connect directly to Insurance..wait it does
       (Holder=Patient is in the join graph but NOT in this query's
       conditions) — the query's conditions are Holder=Citizen and
       Citizen=Patient, so Insurance,Hospital,... has no condition to
       attach at step 2. *)
    Optimizer.reorder q [ "Insurance"; "Hospital"; "Nat_registry" ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disconnected prefix accepted"

let test_optimize_medical () =
  let t = Optimizer.optimize model M.catalog M.policy (M.example_query ()) in
  (match t.best with
   | None -> Alcotest.fail "no feasible order"
   | Some best ->
     (* The default order is feasible, so best can only be cheaper or
        equal. *)
     (match (List.hd t.explored).outcome with
      | Optimizer.Feasible (_, default_cost) ->
        (match best.outcome with
         | Optimizer.Feasible (_, best_cost) ->
           check Alcotest.bool "best <= default" true
             (best_cost <= default_cost)
         | Optimizer.Infeasible _ -> Alcotest.fail "best infeasible?")
      | Optimizer.Infeasible _ -> Alcotest.fail "default infeasible?"));
  check Alcotest.int "all four orders explored" 4 (List.length t.explored);
  check Alcotest.bool "not truncated" false t.truncated

(* A federation where the written order is infeasible but another
   order is safe: reordering recovers feasibility, not just cost. *)
let reorder_rescue_fixture () =
  let sa = Server.make "SA" and sb = Server.make "SB" and sc = Server.make "SC" in
  let a = Schema.make "A" ~key:[ "Ax" ] [ "Ax"; "Adata" ] in
  let b = Schema.make "B" ~key:[ "Bx" ] [ "Bx"; "By"; "Bdata" ] in
  let cc = Schema.make "C" ~key:[ "Cy" ] [ "Cy"; "Cdata" ] in
  let catalog = Catalog.of_list [ (a, sa); (b, sb); (cc, sc) ] in
  let attr name =
    Helpers.check_ok Catalog.pp_error (Catalog.resolve_attribute catalog name)
  in
  let by_cy = Joinpath.Cond.eq (attr "By") (attr "Cy") in
  let auth attrs path server =
    Authz.Authorization.make_exn
      ~attrs:(Attribute.Set.of_list (List.map attr attrs))
      ~path:(Joinpath.of_list path) server
  in
  let policy =
    Authz.Policy.of_list
      [
        auth [ "Ax"; "Adata" ] [] sa;
        auth [ "Bx"; "By"; "Bdata" ] [] sb;
        auth [ "Cy"; "Cdata" ] [] sc;
        (* SB may read C in full: it can master B ⋈ C. *)
        auth [ "Cy"; "Cdata" ] [] sb;
        (* SA may read the B ⋈ C view in full: it can master the final
           join — but nothing lets anybody join A with B directly. *)
        auth [ "Bx"; "By"; "Bdata"; "Cy"; "Cdata" ] [ by_cy ] sa;
      ]
  in
  let query =
    Sql_parser.parse_exn catalog
      "SELECT Adata, Bdata, Cdata FROM A JOIN B ON Ax = Bx JOIN C ON By = Cy"
  in
  (catalog, policy, query)

let test_reordering_recovers_feasibility () =
  let catalog, policy, query = reorder_rescue_fixture () in
  (* Default order: infeasible. *)
  check Alcotest.bool "A⋈B first is blocked" false
    (Safe_planner.feasible catalog policy (Query.to_plan query));
  (* The optimizer finds the B,C,A order. *)
  let t = Optimizer.optimize model catalog policy query in
  match t.best with
  | None -> Alcotest.fail "optimizer found nothing"
  | Some best ->
    check Alcotest.(list string) "B joins C first" [ "B"; "C"; "A" ] best.order;
    (match best.outcome with
     | Optimizer.Feasible (assignment, _) ->
       check Alcotest.bool "and it is safe" true
         (Safety.is_safe catalog policy best.plan assignment)
     | Optimizer.Infeasible _ -> Alcotest.fail "best not feasible")

let test_optimized_plan_executes () =
  let catalog, policy, query = reorder_rescue_fixture () in
  let t = Optimizer.optimize model catalog policy query in
  let best = Option.get t.best in
  let assignment =
    match best.outcome with
    | Optimizer.Feasible (a, _) -> a
    | Optimizer.Infeasible _ -> assert false
  in
  let v s = Value.String s in
  let instances =
    let a = Helpers.check_ok Catalog.pp_error (Catalog.relation catalog "A") in
    let b = Helpers.check_ok Catalog.pp_error (Catalog.relation catalog "B") in
    let cc = Helpers.check_ok Catalog.pp_error (Catalog.relation catalog "C") in
    let table =
      [
        ("A", Relation.of_rows a [ [ v "k1"; v "a1" ]; [ v "k2"; v "a2" ] ]);
        ( "B",
          Relation.of_rows b
            [ [ v "k1"; v "y1"; v "b1" ]; [ v "k3"; v "y2"; v "b3" ] ] );
        ("C", Relation.of_rows cc [ [ v "y1"; v "c1" ]; [ v "y9"; v "c9" ] ]);
      ]
    in
    fun name -> List.assoc_opt name table
  in
  match Distsim.Engine.execute catalog ~instances best.plan assignment with
  | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
  | Ok { result; network; _ } ->
    check Helpers.relation "matches centralized"
      (Distsim.Engine.centralized ~instances best.plan)
      result;
    check Alcotest.int "single joined row" 1 (Relation.cardinality result);
    check Alcotest.bool "audit clean" true
      (Distsim.Audit.is_clean policy network)

let test_max_orders_cap () =
  let q = M.example_query () in
  let t = Optimizer.optimize ~max_orders:1 model M.catalog M.policy q in
  check Alcotest.bool "truncated" true t.truncated;
  check Alcotest.int "original + capped alternatives" 2
    (List.length t.explored)

(* ------------------------------------------------------------------ *)
(* One enumeration, one cost model. [list_valid_orders] is the
   list-based enumeration [Optimizer.valid_orders] replaced, kept here
   as its reference; [joins_rows] sums [Cost.node_rows] over the join
   nodes of a plan, bottom join first. *)

let relations_of_cond cond =
  Joinpath.Cond.attributes cond
  |> Attribute.Set.elements
  |> List.map Attribute.relation
  |> List.sort_uniq String.compare

let cond_status cond ~prefix ~fresh =
  let covered =
    List.for_all
      (fun rel -> rel = fresh || List.mem rel prefix)
      (relations_of_cond cond)
  in
  if not covered then `Pending
  else if not (List.mem fresh (relations_of_cond cond)) then `Already
  else
    let crosses l r =
      let lr = Attribute.relation l and rr = Attribute.relation r in
      (lr = fresh) <> (rr = fresh)
    in
    if List.for_all2 crosses (Joinpath.Cond.left cond) (Joinpath.Cond.right cond)
    then `Attach
    else `Illegal

let list_valid_orders ?(max_orders = 720) (q : Query.t) =
  let all = Query.relations q in
  let conds = List.map snd q.joins in
  let results = ref [] and count = ref 0 in
  let emit order =
    if order <> all && !count < max_orders then begin
      incr count;
      results := order :: !results
    end
  in
  let rec extend prefix_rev remaining used =
    if !count >= max_orders then ()
    else if remaining = [] then emit (List.rev prefix_rev)
    else
      List.iter
        (fun fresh ->
          let prefix = List.rev prefix_rev in
          let statuses =
            List.filter_map
              (fun cond ->
                if List.memq cond used then None
                else Some (cond, cond_status cond ~prefix ~fresh))
              conds
          in
          let illegal = List.exists (fun (_, s) -> s = `Illegal) statuses in
          let attached =
            List.filter_map
              (fun (c, s) -> if s = `Attach then Some c else None)
              statuses
          in
          if (not illegal) && attached <> [] then
            extend (fresh :: prefix_rev)
              (List.filter (fun r -> r <> fresh) remaining)
              (attached @ used))
        remaining
  in
  (match all with
   | [] | [ _ ] -> ()
   | _ ->
     List.iter
       (fun base -> extend [ base ] (List.filter (fun r -> r <> base) all) [])
       all);
  all :: List.rev !results

let rec joins_rows model (n : Plan.node) =
  match n.op with
  | Plan.Leaf _ -> 0.0
  | Plan.Project (_, c) | Plan.Select (_, c) -> joins_rows model c
  | Plan.Join (_, l, r) ->
    joins_rows model l +. joins_rows model r +. Cost.node_rows model n

(* Generated queries: chains, stars and random trees, one to five
   joins, up to three WHERE conjuncts of one or two relations. *)
let generated_query seed =
  let open Workload in
  let rng = Rng.make ~seed in
  let topology =
    match seed mod 3 with
    | 0 -> System_gen.Chain
    | 1 -> System_gen.Star
    | _ -> System_gen.Random { extra_edges = 1 }
  in
  let sys =
    System_gen.generate rng ~relations:6 ~servers:3 ~extra:2 ~topology
  in
  match
    Query_gen.generate rng ~where_prob:0.0 ~joins:(1 + (seed mod 5)) sys
  with
  | None -> None
  | Some q ->
    let attrs =
      List.concat_map
        (fun r ->
          Schema.attributes
            (Helpers.check_ok Catalog.pp_error (Catalog.relation sys.catalog r)))
        (Query.relations q)
    in
    let conjunct () =
      let a = Rng.choose rng attrs in
      if Rng.flip rng 0.2 then Predicate.Cmp (a, Predicate.Eq, Attr (Rng.choose rng attrs))
      else Predicate.Cmp (a, Predicate.Le, Const (Value.Int (Rng.int rng 100)))
    in
    let where = Predicate.conj (List.init (Rng.int rng 4) (fun _ -> conjunct ())) in
    Some
      ( sys.catalog,
        Helpers.check_ok Query.pp_error
          (Query.make sys.catalog ~select:q.select ~base:(Schema.name q.base)
             ~joins:(List.map (fun (s, c) -> (Schema.name s, c)) q.joins)
             ~where) )

(* Multi-pair conditions, one of them over three relations: C joins A
   and B at once, so C can only come after both, and D joins C on two
   pairs. *)
let multi_pair_query () =
  let s = Server.make "S" in
  let a = Schema.make "A" ~key:[ "a1" ] [ "a1"; "a2" ]
  and b = Schema.make "B" ~key:[ "b1" ] [ "b1"; "b2"; "b3" ]
  and cc = Schema.make "C" ~key:[ "c1" ] [ "c1"; "c2"; "c3" ]
  and d = Schema.make "D" ~key:[ "d1" ] [ "d1"; "d2" ] in
  let catalog = Catalog.of_list [ (a, s); (b, s); (cc, s); (d, s) ] in
  let attr r n = Attribute.make ~relation:r n in
  let q =
    Helpers.check_ok Query.pp_error
      (Query.make catalog
         ~select:[ attr "A" "a2"; attr "D" "d2" ]
         ~base:"A"
         ~joins:
           [
             ("B", Joinpath.Cond.eq (attr "A" "a2") (attr "B" "b2"));
             ( "C",
               Joinpath.Cond.make
                 ~left:[ attr "A" "a1"; attr "B" "b1" ]
                 ~right:[ attr "C" "c1"; attr "C" "c2" ] );
             ( "D",
               Joinpath.Cond.make
                 ~left:[ attr "C" "c3"; attr "B" "b3" ]
                 ~right:[ attr "D" "d1"; attr "D" "d2" ] );
           ]
         ~where:
           (Predicate.Cmp (attr "D" "d2", Predicate.Gt, Const (Value.Int 3))))
  in
  (catalog, q)

let cases () =
  (M.catalog, M.example_query ())
  :: multi_pair_query ()
  :: List.filter_map generated_query (List.init 60 Fun.id)

let models =
  [
    ("uniform 1000", Optimizer.rank_model);
    ("uniform 100", model);
    ( "skewed",
      {
        Cost.card = (fun r -> float_of_int (1 + (Hashtbl.hash r mod 5000)));
        join_selectivity = 0.003;
        select_selectivity = 0.1;
        attr_bytes = 8.0;
      } );
    ("clamped", { (Cost.uniform ~card:50.0) with Cost.join_selectivity = 1.7 });
  ]

let order_str = String.concat ">"

let test_valid_orders_as_listed () =
  List.iter
    (fun (_, q) ->
      List.iter
        (fun max_orders ->
          check
            Alcotest.(list (list string))
            (Query.to_string q)
            (list_valid_orders ?max_orders q)
            (Optimizer.valid_orders ?max_orders q))
        [ None; Some 0; Some 1; Some 3 ])
    (cases ())

let test_estimate_is_node_rows () =
  List.iter
    (fun (_, q) ->
      List.iter
        (fun (name, model) ->
          List.iter
            (fun order ->
              let plan = Query.to_plan (Optimizer.reorder q order) in
              let expected = joins_rows model (Plan.root plan) in
              let got = Optimizer.estimate model q order in
              if not (Float.equal expected got) then
                Alcotest.failf "%s, %s, %s: node_rows sum %h, estimate %h"
                  (Query.to_string q) name (order_str order) expected got)
            (Optimizer.valid_orders q))
        models)
    (cases ())

(* The ranked order is the first valid order of least estimate, and the
   SQL order whenever nothing is strictly cheaper. *)
let test_rank_is_least_estimate () =
  let reordered = ref 0 in
  List.iter
    (fun (_, q) ->
      List.iter
        (fun (name, model) ->
          let orders = Optimizer.valid_orders q in
          let est = List.map (fun o -> (o, Optimizer.estimate model q o)) orders in
          let least = List.fold_left (fun m (_, e) -> Float.min m e) infinity est in
          let expected =
            match est with
            | (_, sql) :: _ when sql <= least -> None
            | _ -> Some (fst (List.find (fun (_, e) -> e = least) est))
          in
          if expected <> None then incr reordered;
          check
            Alcotest.(option (list string))
            (Query.to_string q ^ ", " ^ name)
            expected (Optimizer.rank model q))
        models)
    (cases ());
  check Alcotest.bool "some queries rank another order first" true (!reordered > 20)

(* Without a WHERE every order ties under the uniform model: the SQL
   order stays. *)
let test_rank_tie_keeps_sql_order () =
  List.iter
    (fun (_, q) ->
      let q =
        Helpers.check_ok Query.pp_error
          (Query.make M.catalog ~select:q.Query.select ~base:(Schema.name q.base)
             ~joins:(List.map (fun (s, c) -> (Schema.name s, c)) q.joins)
             ~where:Predicate.True)
      in
      check Alcotest.(option (list string)) "tie" None
        (Optimizer.rank Optimizer.rank_model q))
    [ (M.catalog, M.example_query ()) ];
  List.iter
    (fun seed ->
      match generated_query seed with
      | None -> ()
      | Some (catalog, q) ->
        let q =
          Helpers.check_ok Query.pp_error
            (Query.make catalog ~select:q.select ~base:(Schema.name q.base)
               ~joins:(List.map (fun (s, c) -> (Schema.name s, c)) q.joins)
               ~where:Predicate.True)
        in
        check Alcotest.(option (list string)) (Query.to_string q) None
          (Optimizer.rank Optimizer.rank_model q))
    (List.init 60 Fun.id)

(* The reference search with a selection far from the base: the ranked
   order starts next to the selected relation. *)
let test_rank_moves_a_far_selection () =
  let q =
    Sql_parser.parse_exn M.catalog
      (M.example_query_sql ^ " WHERE Physician = 'Dr. X'")
  in
  check Alcotest.(option (list string)) "selection first"
    (Some [ "Nat_registry"; "Hospital"; "Insurance" ])
    (Optimizer.rank Optimizer.rank_model q)

let suite =
  [
    c "connected orders of the example" `Quick test_orders_of_example;
    c "single-relation query" `Quick test_single_relation_order;
    c "all orders compute the same result" `Quick test_reorder_same_results;
    c "reorder validation" `Quick test_reorder_validation;
    c "optimizer on the medical example" `Quick test_optimize_medical;
    c "reordering recovers feasibility" `Quick
      test_reordering_recovers_feasibility;
    c "optimized plan executes and audits clean" `Quick
      test_optimized_plan_executes;
    c "max_orders cap" `Quick test_max_orders_cap;
    c "valid orders as the list-based search lists them" `Quick
      test_valid_orders_as_listed;
    c "estimate = summed node_rows of the reordered plan" `Quick
      test_estimate_is_node_rows;
    c "rank picks the first least estimate" `Quick test_rank_is_least_estimate;
    c "a tie keeps the SQL order" `Quick test_rank_tie_keeps_sql_order;
    c "a far selection moves the order" `Quick test_rank_moves_a_far_selection;
  ]
