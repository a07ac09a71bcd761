open Relalg
open Distsim
module M = Scenario.Medical
module SC = Scenario.Supply_chain

let c = Alcotest.test_case
let check = Alcotest.check

let planned catalog policy plan =
  match Planner.Safe_planner.plan catalog policy plan with
  | Ok r -> r.Planner.Safe_planner.assignment
  | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f

let run catalog instances plan assignment =
  match Engine.execute catalog ~instances plan assignment with
  | Ok o -> o
  | Error e -> Alcotest.failf "%a" Engine.pp_error e

let test_medical_result () =
  let plan = M.example_plan () in
  let { Engine.result; location; network; _ } =
    run M.catalog M.instances plan (planned M.catalog M.policy plan)
  in
  check Helpers.server "at S_H" M.s_h location;
  (* c1, c2, c5 are insured, hospitalized and registered. *)
  check Alcotest.int "three answers" 3 (Relation.cardinality result);
  check Helpers.relation "equals centralized"
    (Engine.centralized ~instances:M.instances plan)
    result;
  check Alcotest.int "three transfers" 3 (Network.message_count network)

let test_semijoin_wire_reduction () =
  (* The semi-join back-leg carries only the joinable tuples (3), not
     the whole Nat_registry (8). *)
  let plan = M.example_plan () in
  let { Engine.network; _ } =
    run M.catalog M.instances plan (planned M.catalog M.policy plan)
  in
  let back =
    List.find
      (fun m -> m.Network.note = "semi-join result for n1")
      (Network.messages network)
  in
  check Alcotest.int "reduced operand" 3 (Relation.cardinality back.Network.data);
  let fwd =
    List.find
      (fun m -> m.Network.note = "join attributes for n1")
      (Network.messages network)
  in
  check Alcotest.(list string) "only the join attribute" [ "Patient" ]
    (List.map Attribute.name (Relation.header fwd.Network.data))

let test_message_profiles_match_planner () =
  (* The engine recomputes profiles independently; they must coincide
     with the planning-time flow profiles. *)
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let { Engine.network; _ } = run M.catalog M.instances plan assignment in
  let flows =
    Helpers.check_ok Planner.Safety.pp_error
      (Planner.Safety.flows M.catalog plan assignment)
  in
  let msgs = Network.messages network in
  check Alcotest.int "same count" (List.length flows) (List.length msgs);
  List.iter2
    (fun (f : Planner.Safety.flow) (m : Network.message) ->
      check Helpers.profile "profile agreement" f.profile m.Network.profile;
      check Helpers.server "sender" f.sender m.Network.sender;
      check Helpers.server "receiver" f.receiver m.Network.receiver)
    flows msgs

let test_supply_chain_tracking () =
  let plan = SC.tracking_plan () in
  let { Engine.result; _ } =
    run SC.catalog SC.instances plan (planned SC.catalog SC.policy plan)
  in
  check Helpers.relation "equals centralized"
    (Engine.centralized ~instances:SC.instances plan)
    result;
  (* o1->alice/FastShip and o3->carol/SlowBoat ship; o9 dangles. *)
  check Alcotest.int "two tracked orders" 2 (Relation.cardinality result)

let test_missing_instance () =
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let gappy name = if name = "Hospital" then None else M.instances name in
  match Engine.execute M.catalog ~instances:gappy plan assignment with
  | Error (Engine.Missing_instance "Hospital") -> ()
  | _ -> Alcotest.fail "missing instance not reported"

let test_structural_rejection () =
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let bad =
    Planner.Assignment.set 4 (Planner.Assignment.executor M.s_h) assignment
  in
  match Engine.execute M.catalog ~instances:M.instances plan bad with
  | Error (Engine.Structure (Planner.Safety.Leaf_not_at_home _)) -> ()
  | _ -> Alcotest.fail "moved leaf executed"

let test_unassigned_rejection () =
  let plan = M.example_plan () in
  match
    Engine.execute M.catalog ~instances:M.instances plan
      Planner.Assignment.empty
  with
  | Error (Engine.Structure (Planner.Safety.Unassigned_node _)) -> ()
  | _ -> Alcotest.fail "empty assignment executed"

let test_third_party_requires_flag () =
  match
    Planner.Third_party.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy
      (SC.pricing_plan ())
  with
  | Error _ -> Alcotest.fail "not rescued"
  | Ok { assignment; _ } ->
    (match
       Engine.execute SC.catalog ~instances:SC.instances (SC.pricing_plan ())
         assignment
     with
     | Error (Engine.Structure (Planner.Safety.Master_not_an_operand _)) -> ()
     | _ -> Alcotest.fail "proxy join executed without the flag")

let test_regular_join_both_directions () =
  (* Force the regular join at n2 with S_N master (as planned), then
     also check the mirrored assignment (S_I master) executes and
     agrees — it is unsafe policy-wise but structurally valid. *)
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let mirrored =
    assignment
    |> Planner.Assignment.set 2 (Planner.Assignment.executor M.s_i)
    |> Planner.Assignment.set 1
         (Planner.Assignment.executor ~slave:M.s_i M.s_h)
  in
  let a = run M.catalog M.instances plan assignment in
  let b = run M.catalog M.instances plan mirrored in
  check Helpers.relation "same answer" a.Engine.result b.Engine.result

let test_local_join_moves_nothing () =
  let s = Server.make "Solo" in
  let r1 = Schema.make "L1" ~key:[ "A" ] [ "A"; "B" ] in
  let r2 = Schema.make "L2" ~key:[ "C" ] [ "C"; "D" ] in
  let catalog = Catalog.of_list [ (r1, s); (r2, s) ] in
  let cond =
    Joinpath.Cond.eq
      (Attribute.make ~relation:"L1" "A")
      (Attribute.make ~relation:"L2" "C")
  in
  let plan =
    Plan.of_algebra
      (Algebra.Join (cond, Algebra.Relation r1, Algebra.Relation r2))
  in
  let assignment =
    Planner.Assignment.empty
    |> Planner.Assignment.set 0 (Planner.Assignment.executor s)
    |> Planner.Assignment.set 1 (Planner.Assignment.executor s)
    |> Planner.Assignment.set 2 (Planner.Assignment.executor s)
  in
  let i x = Value.Int x in
  let instances name =
    if name = "L1" then Some (Relation.of_rows r1 [ [ i 1; i 2 ] ])
    else if name = "L2" then Some (Relation.of_rows r2 [ [ i 1; i 3 ] ])
    else None
  in
  match Engine.execute catalog ~instances plan assignment with
  | Ok { result; network; _ } ->
    check Alcotest.int "joined" 1 (Relation.cardinality result);
    check Alcotest.int "no messages" 0 (Network.message_count network)
  | Error e -> Alcotest.failf "%a" Engine.pp_error e

(* Compilation settles the assignment's structure before a single step
   runs: a leaf moved away from its storage at the last node the run
   would reach fails with nothing computed, observed or sent, where the
   tree-walking twin first runs n2's subtree and ships n2's message. *)
let test_structure_rejected_before_any_step () =
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let bad =
    Planner.Assignment.set 6 (Planner.Assignment.executor M.s_n) assignment
  in
  let observed = ref 0 in
  let observe _ _ = incr observed in
  let network = Network.create () in
  (match
     Engine.execute ~network ~observe M.catalog ~instances:M.instances plan bad
   with
   | Error (Engine.Structure (Planner.Safety.Leaf_not_at_home { node = 6; _ }))
     -> ()
   | _ -> Alcotest.fail "moved leaf not rejected");
  check Alcotest.int "no node ran" 0 !observed;
  check Alcotest.int "no message left" 0 (Network.message_count network);
  let twin = Network.create () in
  (match
     Oracle.Interpreter.execute ~network:twin ~observe M.catalog
       ~instances:M.instances plan bad
   with
   | Error (Engine.Structure (Planner.Safety.Leaf_not_at_home { node = 6; _ }))
     -> ()
   | _ -> Alcotest.fail "the twin reports another error");
  check Alcotest.bool "the twin ran nodes first" true (!observed > 0);
  check Alcotest.bool "and sent" true (Network.message_count twin > 0)

(* A program keeps the instance lookup, not the instances: a run reads
   whatever the lookup holds then, as long as its header is the one
   the steps were compiled for. A reordered header would put every
   downstream position out of step, so it is refused. *)
let test_stale_instance_header () =
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let hospital = Option.get (M.instances "Hospital") in
  let current = ref hospital in
  let instances name =
    if name = "Hospital" then Some !current else M.instances name
  in
  let program =
    Helpers.check_ok Engine.pp_error
      (Engine.compile M.catalog ~instances plan assignment)
  in
  (* Same header, fewer rows: runs, on the rows it finds. *)
  let header = Relation.header hospital in
  let some_rows =
    Relation.of_arrays header [| (Relation.rows hospital).(0) |]
  in
  current := some_rows;
  (match Engine.run program with
   | Ok o ->
     check Helpers.relation "the new rows' answer"
       (Engine.centralized ~instances plan)
       o.result
   | Error e -> Alcotest.failf "%a" Engine.pp_error e);
  (* Same attributes, another order: refused at the leaf. *)
  current :=
    Relation.of_arrays (List.rev header)
      (Array.map
         (fun row -> Array.of_list (List.rev (Array.to_list row)))
         (Relation.rows hospital));
  let network = Network.create () in
  (match Engine.run ~network program with
   | Error (Engine.Stale_instance "Hospital") -> ()
   | Ok _ -> Alcotest.fail "ran on a reordered header"
   | Error e -> Alcotest.failf "unexpected %a" Engine.pp_error e);
  (* The instance is gone. *)
  let gone name = if name = "Hospital" then None else M.instances name in
  match Engine.compile M.catalog ~instances:gone plan assignment with
  | Error (Engine.Missing_instance "Hospital") -> ()
  | _ -> Alcotest.fail "missing instance compiled"

let certified_medical () =
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  match Analysis.Certificate.certify M.catalog M.policy plan assignment with
  | Ok (Some cert) -> (plan, assignment, cert)
  | Ok None | Error _ -> Alcotest.fail "medical plan not certified"

(* Every transmission of a program compiled against its certificate
   carries the certificate's own profile value, and the header it ships
   carries that profile's [pi] set itself: the audit's header check is a
   pointer comparison. *)
let test_transmissions_share_certified_profiles () =
  let plan, assignment, cert = certified_medical () in
  let program =
    Helpers.check_ok Engine.pp_error
      (Engine.compile ~certificate:cert M.catalog ~instances:M.instances plan
         assignment)
  in
  match Engine.run program with
  | Error e -> Alcotest.failf "%a" Engine.pp_error e
  | Ok { network; _ } ->
    let msgs = Network.messages network in
    check Alcotest.int "one message per certified flow"
      (List.length cert.flows) (List.length msgs);
    List.iter
      (fun (m : Network.message) ->
        check Alcotest.bool "the certificate's profile" true
          (List.exists
             (fun (f : Analysis.Certificate.flow_evidence) ->
               f.profile == m.profile)
             cert.flows);
        check Alcotest.bool "the profile's own pi" true
          (Relation.attribute_set m.data == m.profile.Authz.Profile.pi))
      msgs;
    check Alcotest.bool "audit clean" true (Audit.is_clean M.policy network)

(* A certificate that does not cover a transmission stops the program
   before it exists: here the semi-join's ship-back is certified under
   its node's profile instead of the reduced operand's. *)
let test_uncertified_transmission_rejected () =
  let plan, assignment, cert = certified_medical () in
  let node_profile =
    Planner.Safety.profile_of (Option.get (Plan.node plan 1))
  in
  let forged =
    {
      cert with
      flows =
        List.map
          (fun (f : Analysis.Certificate.flow_evidence) ->
            if f.at = 1 && Server.equal f.receiver M.s_h then
              { f with profile = node_profile }
            else f)
          cert.flows;
    }
  in
  (match
     Engine.compile ~certificate:forged M.catalog ~instances:M.instances plan
       assignment
   with
   | Error (Engine.Uncertified_flow { node = 1; sender; receiver }) ->
     check Helpers.server "the ship-back's sender" M.s_n sender;
     check Helpers.server "its receiver" M.s_h receiver
   | Ok _ -> Alcotest.fail "uncovered transmission compiled"
   | Error e -> Alcotest.failf "unexpected %a" Engine.pp_error e);
  (* A certified flow covers one transmission, not two. *)
  let dropped =
    {
      cert with
      flows =
        List.filter
          (fun (f : Analysis.Certificate.flow_evidence) -> f.at <> 2)
          cert.flows;
    }
  in
  match
    Engine.compile ~certificate:dropped M.catalog ~instances:M.instances plan
      assignment
  with
  | Error (Engine.Uncertified_flow { node = 2; _ }) -> ()
  | _ -> Alcotest.fail "a transmission without its certified flow compiled"

(* Bloom's reduced operand ships the slave's attributes alone, which is
   no [Safety] flow: it is exempt from the certificate, while the
   filter's message is held to it. *)
let test_bloom_reduced_operand_exempt () =
  let plan, assignment, cert = certified_medical () in
  match
    Engine.compile ~bloom:8 ~certificate:cert M.catalog ~instances:M.instances
      plan assignment
  with
  | Error e -> Alcotest.failf "%a" Engine.pp_error e
  | Ok program -> (
    match Engine.run program with
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
    | Ok { network; result; _ } ->
      check Helpers.relation "exact answer"
        (Engine.centralized ~instances:M.instances plan)
        result;
      let certified (m : Network.message) =
        List.exists
          (fun (f : Analysis.Certificate.flow_evidence) ->
            f.at = Network.join_of m.purpose
            && Server.equal f.sender m.sender
            && Server.equal f.receiver m.receiver
            && Authz.Profile.equal f.profile m.profile)
          cert.flows
      in
      List.iter
        (fun (m : Network.message) ->
          match (m.purpose, m.payload) with
          | Network.Semijoin_result _, _ ->
            check Alcotest.bool "reduced operand: no certified flow" false
              (certified m)
          | _, Network.Filter _ ->
            check Alcotest.bool "filter: certified" true (certified m)
          | _ -> check Alcotest.bool "certified" true (certified m))
        (Network.messages network))

let suite =
  [
    c "medical query end to end" `Quick test_medical_result;
    c "semi-join reduces wire traffic" `Quick test_semijoin_wire_reduction;
    c "engine profiles match planner flows" `Quick
      test_message_profiles_match_planner;
    c "supply-chain tracking query" `Quick test_supply_chain_tracking;
    c "missing instance reported" `Quick test_missing_instance;
    c "structural violations rejected" `Quick test_structural_rejection;
    c "unassigned plan rejected" `Quick test_unassigned_rejection;
    c "proxy join needs the third-party flag" `Quick
      test_third_party_requires_flag;
    c "regular join in both directions" `Quick
      test_regular_join_both_directions;
    c "co-located join moves nothing" `Quick test_local_join_moves_nothing;
    c "structure rejected before any step" `Quick
      test_structure_rejected_before_any_step;
    c "stale instance header refused" `Quick test_stale_instance_header;
    c "transmissions share certified profiles" `Quick
      test_transmissions_share_certified_profiles;
    c "uncertified transmission rejected" `Quick
      test_uncertified_transmission_rejected;
    c "Bloom reduced operand exempt" `Quick test_bloom_reduced_operand_exempt;
  ]
