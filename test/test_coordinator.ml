open Relalg
open Planner
module R = Scenario.Research

let c = Alcotest.test_case
let check = Alcotest.check

let test_outcomes_infeasible_alone () =
  check Alcotest.bool "blocked among operands" false
    (Safe_planner.feasible R.catalog R.policy (R.outcomes_plan ()))

let test_proxy_cannot_rescue () =
  (* S_T may not see Cohort or Outcome, so the proxy path is closed;
     only the coordinator path remains. *)
  let result =
    Third_party.plan ~helpers:[ R.s_t ] R.catalog R.policy (R.outcomes_plan ())
  in
  match result with
  | Error _ -> Alcotest.fail "coordinator should rescue the outcomes query"
  | Ok { rescues; _ } ->
    (match rescues with
     | [ r ] ->
       check Helpers.server "matcher" R.s_t r.Third_party.helper;
       check Alcotest.bool "as coordinator" true
         (r.Third_party.kind = Third_party.Coordinator)
     | _ -> Alcotest.fail "expected exactly one rescue")

let coordinated_assignment () =
  match
    Third_party.plan ~helpers:[ R.s_t ] R.catalog R.policy (R.outcomes_plan ())
  with
  | Ok { assignment; _ } -> assignment
  | Error _ -> Alcotest.fail "not rescued"

let test_coordinated_assignment_shape () =
  let assignment = coordinated_assignment () in
  let top = Assignment.find assignment 1 in
  (* The registry masters the join, the clinic is the reduced operand,
     the matcher coordinates. *)
  check Helpers.server "registry masters" R.s_r top.Assignment.master;
  check Alcotest.bool "clinic is the slave" true
    (top.Assignment.slave = Some R.s_c);
  check Alcotest.bool "matcher coordinates" true
    (top.Assignment.coordinator = Some R.s_t)

let test_coordinated_flows_authorized () =
  let assignment = coordinated_assignment () in
  match Safety.check R.catalog R.policy (R.outcomes_plan ()) assignment with
  | Ok flows ->
    check Alcotest.int "four flows" 4 (List.length flows);
    (* The matcher receives exactly the two identifier projections. *)
    let to_matcher =
      List.filter
        (fun (f : Safety.flow) -> Server.equal f.receiver R.s_t)
        flows
    in
    check Alcotest.int "two identifier flows" 2 (List.length to_matcher);
    List.iter
      (fun (f : Safety.flow) ->
        check Alcotest.int "one column each" 1
          (Attribute.Set.cardinal f.profile.Authz.Profile.pi);
        check Alcotest.bool "no join info" true
          (Joinpath.is_empty f.profile.Authz.Profile.join))
      to_matcher
  | Error (`Structure e) -> Alcotest.failf "structure: %a" Safety.pp_error e
  | Error (`Violations vs) ->
    Alcotest.failf "violations:@.%a" Fmt.(list Safety.pp_violation) vs

let test_coordinated_execution () =
  let plan = R.outcomes_plan () in
  let assignment = coordinated_assignment () in
  match
    Distsim.Engine.execute R.catalog ~instances:R.instances plan assignment
  with
  | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
  | Ok { result; location; network; _ } ->
    check Helpers.server "result at the registry" R.s_r location;
    check Helpers.relation "matches centralized"
      (Distsim.Engine.centralized ~instances:R.instances plan)
      result;
    (* p1 (improved) and p2 (stable); v3's p9 is not a participant. *)
    check Alcotest.int "two outcome rows" 2 (Relation.cardinality result);
    check Alcotest.int "four messages" 4
      (Distsim.Network.message_count network);
    check Alcotest.bool "audit clean" true
      (Distsim.Audit.is_clean R.policy network);
    (* The clinic ships only its matched visits (2 of 4). *)
    let reduced =
      List.find
        (fun (m : Distsim.Network.message) ->
          match m.purpose with
          | Distsim.Network.Semijoin_result _ -> true
          | _ -> false)
        (Distsim.Network.messages network)
    in
    check Alcotest.int "reduced operand" 2
      (Relation.cardinality reduced.Distsim.Network.data)

let test_coordinator_timing_three_latencies () =
  let plan = R.outcomes_plan () in
  let assignment = coordinated_assignment () in
  let outcome =
    match
      Distsim.Engine.execute R.catalog ~instances:R.instances plan assignment
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
  in
  let model =
    {
      Distsim.Des.link =
        (fun _ _ -> { Distsim.Des.latency = 1.0; bandwidth = infinity });
      per_tuple = 0.0;
    }
  in
  let schedule = Distsim.Des.makespan model plan assignment outcome in
  Alcotest.check (Alcotest.float 1e-9) "three transfers on the path" 3.0
    schedule.Distsim.Des.makespan

let test_markers_query_plain_semijoin () =
  let plan = R.markers_plan () in
  match Safe_planner.plan R.catalog R.policy plan with
  | Error f -> Alcotest.failf "%a" Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    let top = Assignment.find assignment 1 in
    check Helpers.server "registry masters" R.s_r top.Assignment.master;
    check Alcotest.bool "genomics lab is the slave" true
      (top.Assignment.slave = Some R.s_g);
    check Alcotest.bool "no coordinator involved" true
      (top.Assignment.coordinator = None);
    (match
       Distsim.Engine.execute R.catalog ~instances:R.instances plan assignment
     with
     | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
     | Ok { result; network; _ } ->
       check Alcotest.int "p1 and p3" 2 (Relation.cardinality result);
       check Alcotest.bool "audit clean" true
         (Distsim.Audit.is_clean R.policy network))

let test_exhaustive_confirms_infeasibility () =
  (* No operand-only assignment exists: the coordinator is genuinely
     necessary. *)
  check Alcotest.bool "exhaustively infeasible" false
    (Exhaustive.feasible R.catalog R.policy (R.outcomes_plan ()))

let suite =
  [
    c "outcomes query infeasible among operands" `Quick
      test_outcomes_infeasible_alone;
    c "rescued as coordinator, not proxy" `Quick test_proxy_cannot_rescue;
    c "coordinated assignment shape" `Quick test_coordinated_assignment_shape;
    c "coordinated flows authorized (4 flows)" `Quick
      test_coordinated_flows_authorized;
    c "coordinated execution correct and audited" `Quick
      test_coordinated_execution;
    c "coordinator pays three latencies" `Quick
      test_coordinator_timing_three_latencies;
    c "markers query stays a plain semi-join" `Quick
      test_markers_query_plain_semijoin;
    c "exhaustive confirms the blockage" `Quick
      test_exhaustive_confirms_infeasibility;
  ]
