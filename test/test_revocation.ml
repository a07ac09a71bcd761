open Relalg
open Planner
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let nth_auth i = List.nth M.authorizations (i - 1)

let planned () =
  match Safe_planner.plan M.catalog M.policy (M.example_plan ()) with
  | Ok r -> r.Safe_planner.assignment
  | Error f -> Alcotest.failf "%a" Safe_planner.pp_failure f

(* An assignment's support set -- the rules whose revocation can break
   it -- is the set of rules its plan certificate cites. *)
let support assignment =
  match
    Analysis.Certificate.certify M.catalog M.policy (M.example_plan ())
      assignment
  with
  | Ok (Some cert) ->
    Ok
      (List.map
         (fun (r : Analysis.Certificate.rule) -> r.Analysis.Certificate.auth)
         cert.Analysis.Certificate.rules)
  | Ok None -> Alcotest.fail "closed policy certified without a certificate"
  | Error msg -> Error msg

let test_support_of_paper_assignment () =
  match support (planned ()) with
  | Error msg -> Alcotest.fail msg
  | Ok rules ->
    (* Three flows, three distinct admitting rules: 9 (S_N reads
       Insurance), 10 (S_N reads Patient ids), 7 (S_H reads the joined
       answer). *)
    check Alcotest.int "three rules" 3 (List.length rules);
    List.iter
      (fun i ->
        check Alcotest.bool
          (Fmt.str "authorization %d cited" i)
          true
          (List.exists (Authz.Authorization.equal (nth_auth i)) rules))
      [ 7; 9; 10 ]

let test_support_rejects_unsafe () =
  let bad =
    Assignment.set 1 (Assignment.executor M.s_i) (planned ())
  in
  match support bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe assignment got a support set"

let test_load_bearing () =
  let rules = Revocation.load_bearing M.catalog M.policy (M.example_plan ()) in
  (* Authorization 9 is the only enabler of n2; 7 the only master view
     for n1; 10 the only slave view. Removing any one kills the plan. *)
  List.iter
    (fun i ->
      check Alcotest.bool
        (Fmt.str "authorization %d load-bearing" i)
        true
        (List.exists (Authz.Authorization.equal (nth_auth i)) rules))
    [ 7; 9; 10 ];
  (* Authorization 15 (S_D on Disease_list) is irrelevant here. *)
  check Alcotest.bool "authorization 15 not load-bearing" false
    (List.exists (Authz.Authorization.equal (nth_auth 15)) rules)

let test_load_bearing_empty_for_infeasible () =
  check
    Alcotest.(list Helpers.authorization)
    "no load-bearing rules for a blocked plan" []
    (Revocation.load_bearing Scenario.Supply_chain.catalog
       Scenario.Supply_chain.policy
       (Scenario.Supply_chain.pricing_plan ()))

let test_removing_load_bearing_breaks () =
  (* Definitional cross-check. *)
  let plan = M.example_plan () in
  List.iter
    (fun rule ->
      check Alcotest.bool "infeasible without it" false
        (Safe_planner.feasible M.catalog
           (Authz.Policy.remove rule M.policy)
           plan))
    (Revocation.load_bearing M.catalog M.policy plan)

let test_impact_over_workload () =
  let module SC = Scenario.Supply_chain in
  let plans = [ SC.tracking_plan (); SC.customers_plan () ] in
  let impacts = Revocation.impact SC.catalog SC.policy plans in
  (* Sorted by decreasing damage. *)
  let brokens = List.map (fun i -> i.Revocation.broken) impacts in
  check Alcotest.bool "sorted" true
    (List.sort (fun a b -> compare b a) brokens = brokens);
  (* Every rule's damage is within bounds. *)
  List.iter
    (fun (i : Revocation.impact) ->
      check Alcotest.bool "bounds" true (i.broken >= 0 && i.broken <= i.total))
    impacts;
  (* The tracking query's semi-join hinges on the {OrderId} grant to
     S_L: revoking it must break at least one plan. *)
  let order_id_grant =
    List.find
      (fun (a : Authz.Authorization.t) ->
        Server.equal a.server SC.s_l
        && Attribute.Set.equal a.attrs
             (Attribute.Set.singleton (SC.attr "OrderId")))
      (Authz.Policy.authorizations SC.policy)
  in
  let its_impact =
    List.find
      (fun (i : Revocation.impact) ->
        Authz.Authorization.equal i.rule order_id_grant)
      impacts
  in
  check Alcotest.bool "slave-view grant is load-bearing" true
    (its_impact.Revocation.broken >= 1)

let test_policy_remove () =
  let p = Authz.Policy.remove (nth_auth 9) M.policy in
  check Alcotest.int "one fewer rule" 14 (Authz.Policy.cardinality p);
  (* can_view reflects the removal (the index stays consistent). *)
  let profile =
    Authz.Profile.make
      ~pi:(Attribute.Set.of_list [ M.attr "Holder"; M.attr "Plan" ])
      ~join:Joinpath.empty ~sigma:Attribute.Set.empty
  in
  check Alcotest.bool "S_N view revoked" false
    (Authz.Policy.can_view p profile M.s_n);
  check Alcotest.bool "S_I view unaffected" true
    (Authz.Policy.can_view p profile M.s_i);
  (* Removing an absent rule is a no-op. *)
  check Alcotest.int "idempotent" 14
    (Authz.Policy.cardinality (Authz.Policy.remove (nth_auth 9) p))

(* The chase-aware analyses revoke each candidate from one computed
   closure; the oracle closes [policy - r] from scratch for every rule
   [r] and plans against that closure as a plain policy. Impacts are
   compared per rule (their order is checked above). *)
let check_against_oracle what ~joins catalog policy plans =
  let module P = Authz.Policy in
  let feasible policy p =
    Safe_planner.feasible catalog (Authz.Chase.close ~joins policy) p
  in
  List.iter
    (fun p ->
      check
        Alcotest.(list Helpers.authorization)
        (what ^ ": load_bearing ~joins")
        (if not (feasible policy p) then []
         else
           List.filter
             (fun rule -> not (feasible (P.remove rule policy) p))
             (P.authorizations policy))
        (Revocation.load_bearing ~joins catalog policy p))
    plans;
  let feasible_plans = List.filter (feasible policy) plans in
  check
    Alcotest.(list (triple Helpers.authorization int int))
    (what ^ ": impact ~joins")
    (List.map
       (fun rule ->
         ( rule,
           List.length feasible_plans,
           List.length
             (List.filter
                (fun p -> not (feasible (P.remove rule policy) p))
                feasible_plans) ))
       (P.authorizations policy))
    (Revocation.impact ~joins catalog policy plans
    |> List.map (fun (i : Revocation.impact) -> (i.rule, i.total, i.broken))
    |> List.sort (fun (a, _, _) (b, _, _) -> Authz.Authorization.compare a b))

let test_chase_aware_matches_oracle () =
  let plans =
    List.map
      (fun sql -> Query.to_plan (Sql_parser.parse_exn M.catalog sql))
      [
        M.example_query_sql;
        "SELECT Citizen, HealthAid FROM Nat_registry JOIN Hospital ON \
         Citizen = Patient";
        "SELECT Plan, HealthAid, Disease FROM Insurance JOIN Nat_registry ON \
         Holder = Citizen JOIN Hospital ON Holder = Patient";
      ]
  in
  check_against_oracle "medical" ~joins:M.join_graph M.catalog M.policy plans;
  let open Workload in
  let rng = Rng.make ~seed:5 in
  let sys =
    System_gen.generate rng ~relations:5 ~servers:5 ~extra:1
      ~topology:System_gen.Chain
  in
  let policy = Authz_gen.generate rng ~max_path:2 ~density:0.6 sys in
  let plans =
    List.filter_map
      (fun joins -> Query_gen.generate_plan rng ~joins sys)
      [ 1; 2; 2; 3; 4 ]
  in
  check_against_oracle "chain" ~joins:sys.System_gen.join_graph
    sys.System_gen.catalog policy plans

let suite =
  [
    c "support set of the paper's assignment" `Quick
      test_support_of_paper_assignment;
    c "support rejects unsafe assignments" `Quick test_support_rejects_unsafe;
    c "load-bearing rules of the example" `Quick test_load_bearing;
    c "infeasible plans have no load-bearing rules" `Quick
      test_load_bearing_empty_for_infeasible;
    c "removing a load-bearing rule breaks the plan" `Quick
      test_removing_load_bearing_breaks;
    c "impact over a workload" `Quick test_impact_over_workload;
    c "Policy.remove keeps the index consistent" `Quick test_policy_remove;
    c "chase-aware analyses match a from-scratch oracle" `Quick
      test_chase_aware_matches_oracle;
  ]
