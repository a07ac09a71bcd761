open Planner
module SC = Scenario.Supply_chain
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let test_pricing_rescued () =
  match
    Third_party.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy
      (SC.pricing_plan ())
  with
  | Ok { assignment; rescues; _ } ->
    (match rescues with
     | [ r ] ->
       check Alcotest.int "join node" 1 r.Third_party.node;
       check Helpers.server "broker" SC.s_b r.Third_party.helper
     | _ -> Alcotest.fail "expected exactly one rescue");
    check Alcotest.bool "safe under third-party rules" true
      (Safety.is_safe ~third_party:true SC.catalog SC.policy
         (SC.pricing_plan ()) assignment)
  | Error _ -> Alcotest.fail "broker should rescue the pricing query"

let test_no_helpers_no_rescue () =
  match Third_party.plan ~helpers:[] SC.catalog SC.policy (SC.pricing_plan ()) with
  | Ok _ -> Alcotest.fail "rescued without helpers"
  | Error f -> check Alcotest.int "failing node" 1 f.Third_party.failed_at

let test_unqualified_helper () =
  (* S_L has no grants on Orders or Parts: it cannot act as the
     broker. *)
  match
    Third_party.plan ~helpers:[ SC.s_l ] SC.catalog SC.policy
      (SC.pricing_plan ())
  with
  | Ok _ -> Alcotest.fail "unqualified helper accepted"
  | Error f -> check Alcotest.int "failing node" 1 f.Third_party.failed_at

let test_no_rescue_needed () =
  (* A feasible plan gains no rescues even with helpers available. *)
  match
    Third_party.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy
      (SC.tracking_plan ())
  with
  | Ok { rescues; _ } -> check Alcotest.int "no rescues" 0 (List.length rescues)
  | Error _ -> Alcotest.fail "tracking query is feasible"

let test_medical_never_needs_helpers () =
  match
    Third_party.plan ~helpers:[ M.s_d ] M.catalog M.policy (M.example_plan ())
  with
  | Ok { rescues; _ } -> check Alcotest.int "no rescues" 0 (List.length rescues)
  | Error _ -> Alcotest.fail "medical plan is feasible"

let test_execution_through_proxy () =
  match
    Third_party.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy
      (SC.pricing_plan ())
  with
  | Error _ -> Alcotest.fail "not rescued"
  | Ok { assignment; _ } ->
    (match
       Distsim.Engine.execute ~third_party:true SC.catalog
         ~instances:SC.instances (SC.pricing_plan ()) assignment
     with
     | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
     | Ok { result; location; network; _ } ->
       check Helpers.server "result at broker" SC.s_b location;
       check Helpers.relation "matches centralized"
         (Distsim.Engine.centralized ~instances:SC.instances
            (SC.pricing_plan ()))
         result;
       check Alcotest.bool "audit clean" true
         (Distsim.Audit.is_clean SC.policy network);
       (* The proxy receives exactly two messages (both operands). *)
       check Alcotest.int "two transfers" 2
         (Distsim.Network.message_count network))

let suite =
  [
    c "pricing query rescued by broker" `Quick test_pricing_rescued;
    c "no helpers, no rescue" `Quick test_no_helpers_no_rescue;
    c "unqualified helper rejected" `Quick test_unqualified_helper;
    c "feasible plans gain no rescues" `Quick test_no_rescue_needed;
    c "medical plan unaffected" `Quick test_medical_never_needs_helpers;
    c "execution through the proxy" `Quick test_execution_through_proxy;
  ]
