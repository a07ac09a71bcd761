open Relalg
module M = Scenario.Medical
module SC = Scenario.Supply_chain

let c = Alcotest.test_case
let check = Alcotest.check

let test_medical_catalog () =
  check Alcotest.int "four relations" 4
    (List.length (Catalog.schemas M.catalog));
  check Alcotest.int "four servers" 4
    (Server.Set.cardinal (Catalog.servers M.catalog));
  check Helpers.server "Insurance at S_I" M.s_i
    (Helpers.check_ok Catalog.pp_error (Catalog.server_of M.catalog "Insurance"))

let test_medical_instances_consistent () =
  List.iter
    (fun schema ->
      match M.instances (Schema.name schema) with
      | None -> Alcotest.failf "no instance for %s" (Schema.name schema)
      | Some r ->
        check Helpers.attribute_set
          (Schema.name schema)
          (Schema.attribute_set schema)
          (Relation.attribute_set r))
    (Catalog.schemas M.catalog)

let test_medical_example_nonempty () =
  let result =
    Distsim.Engine.centralized ~instances:M.instances (M.example_plan ())
  in
  check Alcotest.bool "joins are non-trivial" true
    (Relation.cardinality result > 0)

let test_join_graph_edges () =
  check Alcotest.int "four edges (Figure 1 lines)" 4
    (List.length M.join_graph)

let test_figures_render () =
  let module F = Scenario.Paper_figures in
  List.iter
    (fun (name, s) ->
      check Alcotest.bool (name ^ " non-empty") true (String.length s > 40))
    [
      ("fig1", F.fig1_schema ());
      ("fig2", F.fig2_query_plan ());
      ("fig3", F.fig3_authorizations ());
      ("fig4", F.fig4_profile_rules ());
      ("fig5", F.fig5_execution_modes ());
      ("fig7", F.fig7_algorithm_trace ());
      ("all", F.all ());
    ]

let test_fig3_content () =
  let s = Scenario.Paper_figures.fig3_authorizations () in
  (* Spot-check three rules of Figure 3. *)
  List.iter
    (fun fragment ->
      check Alcotest.bool fragment true (Helpers.contains ~sub:fragment s))
    [
      "[{Holder, Plan}, -] -> S_I";
      "[{Illness, Treatment}, -] -> S_D";
      "-> S_N";
    ]

let test_fig7_content () =
  let s = Scenario.Paper_figures.fig7_algorithm_trace () in
  List.iter
    (fun fragment ->
      check Alcotest.bool fragment true (Helpers.contains ~sub:fragment s))
    [ "[S_I, -, 0]"; "[S_N, right, 1]"; "[S_H, S_N]"; "Assign_ex" ]

let test_supply_chain_design () =
  (* The three design properties the scenario documents. *)
  check Alcotest.bool "pricing infeasible" false
    (Planner.Safe_planner.feasible SC.catalog SC.policy (SC.pricing_plan ()));
  check Alcotest.bool "pricing rescued" true
    (Planner.Safe_planner.feasible ~helpers:[ SC.s_b ] SC.catalog SC.policy
       (SC.pricing_plan ()));
  check Alcotest.bool "tracking feasible" true
    (Planner.Safe_planner.feasible SC.catalog SC.policy (SC.tracking_plan ()));
  let regular_only =
    { Planner.Safe_planner.default_config with allow_semijoins = false }
  in
  check Alcotest.bool "tracking needs semi-joins" false
    (Planner.Safe_planner.feasible ~config:regular_only SC.catalog SC.policy
       (SC.tracking_plan ()))

let test_supply_chain_customers_semijoin () =
  match
    Planner.Safe_planner.plan SC.catalog SC.policy (SC.customers_plan ())
  with
  | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    let top = Planner.Assignment.find assignment 1 in
    check Helpers.server "supplier masters" SC.s_p top.Planner.Assignment.master;
    check Alcotest.bool "as a semi-join" true
      (top.Planner.Assignment.slave = Some SC.s_m)

let test_supply_chain_instances () =
  List.iter
    (fun schema ->
      match SC.instances (Schema.name schema) with
      | None -> Alcotest.failf "no instance for %s" (Schema.name schema)
      | Some r -> check Alcotest.bool "non-empty" true (Relation.cardinality r > 0))
    (Catalog.schemas SC.catalog)

let suite =
  [
    c "medical catalog" `Quick test_medical_catalog;
    c "medical instances match schemas" `Quick test_medical_instances_consistent;
    c "medical example query non-empty" `Quick test_medical_example_nonempty;
    c "join graph has Figure 1's edges" `Quick test_join_graph_edges;
    c "paper figures render" `Quick test_figures_render;
    c "Figure 3 content" `Quick test_fig3_content;
    c "Figure 7 content" `Quick test_fig7_content;
    c "supply-chain design properties" `Quick test_supply_chain_design;
    c "customers query is a supplier semi-join" `Quick
      test_supply_chain_customers_semijoin;
    c "supply-chain instances" `Quick test_supply_chain_instances;
  ]
