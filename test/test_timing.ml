open Relalg
open Distsim
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

let medical_outcome () =
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  let outcome =
    match Engine.execute M.catalog ~instances:M.instances plan assignment with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
  in
  (plan, assignment, outcome)

let test_node_rows_recorded () =
  let plan, _, outcome = medical_outcome () in
  check Alcotest.int "one entry per node" (Plan.size plan)
    (List.length outcome.Engine.node_rows);
  (* Leaves match the instances. *)
  check Alcotest.(option int) "Insurance rows" (Some 5)
    (List.assoc_opt 4 outcome.Engine.node_rows);
  check Alcotest.(option int) "Nat_registry rows" (Some 8)
    (List.assoc_opt 5 outcome.Engine.node_rows);
  check Alcotest.(option int) "result rows" (Some 3)
    (List.assoc_opt 0 outcome.Engine.node_rows)

let test_makespan_positive_and_ordered () =
  let plan, assignment, outcome = medical_outcome () in
  let model = Des.uniform () in
  let schedule = Des.makespan model plan assignment outcome in
  check Alcotest.int "every node scheduled" (Plan.size plan)
    (List.length schedule.Des.finish);
  check Alcotest.bool "positive makespan" true (schedule.Des.makespan > 0.0);
  (* A node never finishes before its children. *)
  List.iter
    (fun (n : Plan.node) ->
      let t id = List.assoc id schedule.Des.finish in
      List.iter
        (fun (child : Plan.node) ->
          check Alcotest.bool
            (Printf.sprintf "n%d after n%d" n.id child.Plan.id)
            true
            (t n.id >= t child.Plan.id))
        (Plan.children n))
    (Plan.nodes plan);
  (* The root completion is the makespan. *)
  checkf "root = makespan" schedule.Des.makespan
    (List.assoc 0 schedule.Des.finish)

(* A single-join fixture (the supply-chain tracking query, planned as
   a semi-join) plus its hand-built regular variant, for unambiguous
   critical paths. *)
let tracking_outcomes () =
  let module SC = Scenario.Supply_chain in
  let plan = SC.tracking_plan () in
  let semi_assignment =
    match Planner.Safe_planner.plan SC.catalog SC.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  let regular_assignment =
    (* Structurally valid (not authorized — timing only). *)
    Planner.Assignment.set 1
      (Planner.Assignment.executor SC.s_m)
      semi_assignment
  in
  let run assignment =
    match Engine.execute SC.catalog ~instances:SC.instances plan assignment with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
  in
  (plan, (semi_assignment, run semi_assignment),
   (regular_assignment, run regular_assignment))

let latency_only latency =
  {
    Des.link = (fun _ _ -> { Des.latency; bandwidth = infinity });
    per_tuple = 0.0;
  }

let test_semijoin_pays_two_latencies () =
  let plan, (semi_a, semi_o), (reg_a, reg_o) = tracking_outcomes () in
  let semi = (Des.makespan (latency_only 1.0) plan semi_a semi_o).Des.makespan in
  let regular = (Des.makespan (latency_only 1.0) plan reg_a reg_o).Des.makespan in
  checkf "semi-join: two latencies" 2.0 semi;
  checkf "regular join: one latency" 1.0 regular

let test_medical_overlap () =
  (* On the medical plan the semi-join's forward leg overlaps the
     regular transfer feeding n2, so the total critical path is two
     latencies, not three — the schedule captures pipeline overlap. *)
  let plan, assignment, outcome = medical_outcome () in
  let schedule = Des.makespan (latency_only 1.0) plan assignment outcome in
  checkf "two latencies despite three messages" 2.0 schedule.Des.makespan

let test_regular_join_single_latency () =
  (* Mirror n1 into a regular join (structurally valid): its critical
     path drops to one latency after n2's one: total 2. *)
  let plan, assignment, _ = medical_outcome () in
  let regular = Planner.Assignment.set 1 (Planner.Assignment.executor M.s_h) assignment in
  let outcome =
    match Engine.execute M.catalog ~instances:M.instances plan regular with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
  in
  let model =
    {
      Des.link = (fun _ _ -> { Des.latency = 1.0; bandwidth = infinity });
      per_tuple = 0.0;
    }
  in
  let schedule = Des.makespan model plan regular outcome in
  checkf "two latencies" 2.0 schedule.Des.makespan

let test_bandwidth_dominates_when_slow () =
  (* Very slow link: makespan ≈ bytes/bandwidth; semi-join (96 bytes
     in the medical run) finishes measurably sooner than the regular
     variant, which ships more. *)
  let plan, assignment, outcome = medical_outcome () in
  let slow latency = {
    Des.link = (fun _ _ -> { Des.latency; bandwidth = 10.0 });
    per_tuple = 0.0;
  } in
  let semi = (Des.makespan (slow 0.0) plan assignment outcome).Des.makespan in
  let regular_assignment =
    Planner.Assignment.set 1 (Planner.Assignment.executor M.s_h) assignment
  in
  let regular_outcome =
    match
      Engine.execute M.catalog ~instances:M.instances plan regular_assignment
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
  in
  let regular =
    (Des.makespan (slow 0.0) plan regular_assignment regular_outcome)
      .Des.makespan
  in
  check Alcotest.bool
    (Fmt.str "semi %.2f < regular %.2f on slow links" semi regular)
    true (semi < regular)

let test_crossover_with_latency () =
  (* The same two assignments on a fast, high-latency link: the extra
     round trip makes the semi-join lose. This is the EXP-H
     crossover. *)
  let plan, (semi_a, semi_o), (reg_a, reg_o) = tracking_outcomes () in
  let fast = {
    Des.link = (fun _ _ -> { Des.latency = 1.0; bandwidth = 1e9 });
    per_tuple = 0.0;
  } in
  let semi = (Des.makespan fast plan semi_a semi_o).Des.makespan in
  let regular = (Des.makespan fast plan reg_a reg_o).Des.makespan in
  check Alcotest.bool
    (Fmt.str "regular %.2f < semi %.2f on fast links" regular semi)
    true (regular < semi)

let test_proxy_timing () =
  (* The broker-proxied pricing query: both operands travel, one
     latency each in parallel, so exactly one latency end-to-end. *)
  let module SC = Scenario.Supply_chain in
  let plan = SC.pricing_plan () in
  let assignment =
    match
      Planner.Third_party.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy plan
    with
    | Ok r -> r.Planner.Third_party.assignment
    | Error _ -> Alcotest.fail "not rescued"
  in
  let outcome =
    match
      Engine.execute ~third_party:true SC.catalog ~instances:SC.instances
        plan assignment
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
  in
  let schedule = Des.makespan (latency_only 1.0) plan assignment outcome in
  checkf "one parallel latency" 1.0 schedule.Des.makespan

let test_mismatched_outcome_rejected () =
  let plan, assignment, _ = medical_outcome () in
  let other_plan = Scenario.Supply_chain.tracking_plan () in
  let other_outcome =
    let a =
      match
        Planner.Safe_planner.plan Scenario.Supply_chain.catalog
          Scenario.Supply_chain.policy other_plan
      with
      | Ok r -> r.Planner.Safe_planner.assignment
      | Error _ -> assert false
    in
    match
      Engine.execute Scenario.Supply_chain.catalog
        ~instances:Scenario.Supply_chain.instances other_plan a
    with
    | Ok o -> o
    | Error _ -> assert false
  in
  match Des.makespan (Des.uniform ()) plan assignment other_outcome with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched outcome accepted"

let suite =
  [
    c "node_rows recorded" `Quick test_node_rows_recorded;
    c "makespan is positive and respects dependencies" `Quick
      test_makespan_positive_and_ordered;
    c "semi-join pays two latencies" `Quick test_semijoin_pays_two_latencies;
    c "pipeline overlap on the medical plan" `Quick test_medical_overlap;
    c "regular join pays one latency" `Quick test_regular_join_single_latency;
    c "slow links favour semi-joins" `Quick test_bandwidth_dominates_when_slow;
    c "fast high-latency links favour regular joins" `Quick
      test_crossover_with_latency;
    c "proxy join: one parallel latency" `Quick test_proxy_timing;
    c "mismatched outcome rejected" `Quick test_mismatched_outcome_rejected;
  ]
