open Relalg
open Planner
module M = Scenario.Medical
module SC = Scenario.Supply_chain

let c = Alcotest.test_case
let check = Alcotest.check

let plan_medical () =
  match Safe_planner.plan M.catalog M.policy (M.example_plan ()) with
  | Ok r -> r
  | Error f -> Alcotest.failf "%a" Safe_planner.pp_failure f

(* ------------------------------------------------------------------ *)
(* Figure 7, left table: Find_candidates visit order and candidates.   *)

let candidate_summary (i : Safe_planner.node_info) =
  ( i.node,
    List.map
      (fun (cand : Safe_planner.candidate) ->
        ( Server.name cand.server,
          (match cand.fromchild with
           | None -> "-"
           | Some Safe_planner.Left -> "left"
           | Some Safe_planner.Right -> "right"),
          cand.count ))
      i.candidates )

let test_fig7_find_candidates () =
  let { Safe_planner.trace; _ } = plan_medical () in
  let got = List.map candidate_summary trace.visit_order in
  check
    Alcotest.(list (pair int (list (triple string string int))))
    "Figure 7 candidates"
    [
      (4, [ ("S_I", "-", 0) ]);
      (5, [ ("S_N", "-", 0) ]);
      (2, [ ("S_N", "right", 1) ]);
      (6, [ ("S_H", "-", 0) ]);
      (3, [ ("S_H", "left", 0) ]);
      (1, [ ("S_H", "right", 1) ]);
      (0, [ ("S_H", "left", 1) ]);
    ]
    got

let test_fig7_slave_at_n1 () =
  let { Safe_planner.trace; _ } = plan_medical () in
  let n1 = List.find (fun i -> i.Safe_planner.node = 1) trace.visit_order in
  (match n1.Safe_planner.leftslave with
   | Some cand -> check Helpers.server "left slave S_N" M.s_n cand.server
   | None -> Alcotest.fail "no left slave at n1");
  (* Its single candidate executes as a semi-join. *)
  match n1.Safe_planner.candidates with
  | [ cand ] ->
    check Alcotest.bool "semi mode" true (cand.mode = Safe_planner.Semi)
  | _ -> Alcotest.fail "expected one candidate at n1"

let test_fig7_n2_regular () =
  let { Safe_planner.trace; _ } = plan_medical () in
  let n2 = List.find (fun i -> i.Safe_planner.node = 2) trace.visit_order in
  match n2.Safe_planner.candidates with
  | [ cand ] ->
    check Alcotest.bool "regular mode" true (cand.mode = Safe_planner.Regular)
  | _ -> Alcotest.fail "expected one candidate at n2"

(* Figure 7, right table: the executor assignment. *)
let test_fig7_assignment () =
  let { Safe_planner.assignment; _ } = plan_medical () in
  let exec id = Assignment.find assignment id in
  let e master slave =
    Assignment.executor ?slave (Server.make master)
  in
  check Helpers.executor "n0 [S_H, NULL]" (e "S_H" None) (exec 0);
  check Helpers.executor "n1 [S_H, S_N]" (e "S_H" (Some M.s_n)) (exec 1);
  check Helpers.executor "n2 [S_N, NULL]" (e "S_N" None) (exec 2);
  check Helpers.executor "n3 [S_H, NULL]" (e "S_H" None) (exec 3);
  check Helpers.executor "n4 [S_I, NULL]" (e "S_I" None) (exec 4);
  check Helpers.executor "n5 [S_N, NULL]" (e "S_N" None) (exec 5);
  check Helpers.executor "n6 [S_H, NULL]" (e "S_H" None) (exec 6)

let test_fig7_assign_order () =
  (* Pre-order with the left subtree of n1 visited before n3. *)
  let { Safe_planner.trace; _ } = plan_medical () in
  check
    Alcotest.(list int)
    "assign order" [ 0; 1; 2; 4; 5; 3; 6 ]
    (List.map fst trace.assign_order)

let test_planned_assignment_is_safe () =
  let { Safe_planner.assignment; _ } = plan_medical () in
  check Alcotest.bool "Definition 4.2" true
    (Safety.is_safe M.catalog M.policy (M.example_plan ()) assignment)

(* ------------------------------------------------------------------ *)
(* Infeasibility and config baselines.                                 *)

let test_infeasible_without_s_n_grants () =
  (* Remove S_N's rules 9-14: n2 loses its only candidate. *)
  let reduced =
    Authz.Policy.of_list
      (List.filter
         (fun (a : Authz.Authorization.t) ->
           (not (Server.equal a.server M.s_n))
           || Attribute.Set.equal a.attrs
                (Schema.attribute_set M.nat_registry))
         M.authorizations)
  in
  match Safe_planner.plan M.catalog reduced (M.example_plan ()) with
  | Ok _ -> Alcotest.fail "expected infeasible"
  | Error f ->
    check Alcotest.int "fails at n2" 2 f.failed_at;
    (* The partial trace contains the leaves visited before the
       failure. *)
    check Alcotest.bool "partial trace" true
      (List.length f.info >= 2)

let test_medical_infeasible_without_semijoins () =
  (* The paper's own example NEEDS the semi-join: no server may receive
     either operand of n1 in full (S_H's authorization 7 has the
     three-relation path, not n2's two-relation one; S_N's
     authorization 10 lacks Physician), so the regular-join-only
     baseline fails — semi-joins are not just cheaper, they enlarge the
     feasible set. *)
  let config =
    { Safe_planner.default_config with allow_semijoins = false }
  in
  check Alcotest.bool "regular-only infeasible" false
    (Safe_planner.feasible ~config M.catalog M.policy (M.example_plan ()))

let test_tracking_needs_semijoins () =
  let config =
    { Safe_planner.default_config with allow_semijoins = false }
  in
  check Alcotest.bool "semi-join only query" false
    (Safe_planner.feasible ~config SC.catalog SC.policy (SC.tracking_plan ()));
  check Alcotest.bool "feasible with semi-joins" true
    (Safe_planner.feasible SC.catalog SC.policy (SC.tracking_plan ()))

let test_helpers_parameter () =
  match
    Safe_planner.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy
      (SC.pricing_plan ())
  with
  | Ok { assignment; _ } ->
    let root_join = Assignment.find assignment 1 in
    check Helpers.server "broker masters the join" SC.s_b
      root_join.Assignment.master;
    check Alcotest.bool "safe under third-party rules" true
      (Safety.is_safe ~third_party:true SC.catalog SC.policy
         (SC.pricing_plan ()) assignment)
  | Error f -> Alcotest.failf "not rescued: %a" Safe_planner.pp_failure f

let test_trace_printing () =
  let { Safe_planner.trace; _ } = plan_medical () in
  let s = Fmt.str "%a" Safe_planner.pp_trace trace in
  List.iter
    (fun fragment ->
      check Alcotest.bool fragment true (Helpers.contains ~sub:fragment s))
    [ "[S_I, -, 0]"; "[S_H, right, 1, semi] S_N"; "[S_H, S_N]" ]

let suite =
  [
    c "Figure 7: Find_candidates table" `Quick test_fig7_find_candidates;
    c "Figure 7: slave at n1" `Quick test_fig7_slave_at_n1;
    c "Figure 7: n2 is a regular join" `Quick test_fig7_n2_regular;
    c "Figure 7: Assign_ex executors" `Quick test_fig7_assignment;
    c "Figure 7: Assign_ex order" `Quick test_fig7_assign_order;
    c "planned assignment is safe (Def 4.2)" `Quick
      test_planned_assignment_is_safe;
    c "infeasibility reported at the right node" `Quick
      test_infeasible_without_s_n_grants;
    c "medical infeasible regular-only" `Quick
      test_medical_infeasible_without_semijoins;
    c "tracking query needs semi-joins" `Quick test_tracking_needs_semijoins;
    c "third-party helpers" `Quick test_helpers_parameter;
    c "trace rendering" `Quick test_trace_printing;
  ]
