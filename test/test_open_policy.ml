(* Open-policy mode (footnote 1): data visible by default, negative
   rules restrict. Our reading of a denial [A, J] -> S: S must not
   receive a view revealing all of A under a join path containing J
   (see DESIGN.md). *)

open Relalg
open Authz
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check
let aset names = Attribute.Set.of_list (List.map M.attr names)

let profile ?(join = Joinpath.empty) ?(sigma = []) pi =
  Profile.make ~pi:(aset pi) ~join ~sigma:(aset sigma)

let deny attrs path server =
  Authorization.make_denial ~attrs:(aset attrs) ~path:(Joinpath.of_list path)
    server

let holder_patient = Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient")

(* S_I must never see diseases, nor the Holder-HealthAid association. *)
let open_medical =
  Policy.open_policy
    [
      deny [ "Disease" ] [] M.s_i;
      deny [ "Holder"; "HealthAid" ] [] M.s_i;
    ]

let test_default_allow () =
  check Alcotest.bool "anything not denied is allowed" true
    (Policy.can_view open_medical (profile [ "Patient"; "Physician" ]) M.s_i);
  check Alcotest.bool "other servers unaffected" true
    (Policy.can_view open_medical (profile [ "Disease" ]) M.s_h)

let test_single_attribute_denial () =
  check Alcotest.bool "Disease denied" false
    (Policy.can_view open_medical (profile [ "Disease" ]) M.s_i);
  check Alcotest.bool "denial is upward closed" false
    (Policy.can_view open_medical
       (profile [ "Disease"; "Patient"; "Physician" ])
       M.s_i);
  check Alcotest.bool "sigma attributes count" false
    (Policy.can_view open_medical
       (profile [ "Patient" ] ~sigma:[ "Disease" ])
       M.s_i)

let test_association_denial () =
  (* The two-attribute denial only fires when BOTH are visible. *)
  check Alcotest.bool "Holder alone fine" true
    (Policy.can_view open_medical (profile [ "Holder" ]) M.s_i);
  check Alcotest.bool "HealthAid alone fine" true
    (Policy.can_view open_medical (profile [ "HealthAid" ]) M.s_i);
  check Alcotest.bool "the association denied" false
    (Policy.can_view open_medical (profile [ "Holder"; "HealthAid" ]) M.s_i)

let test_path_containment () =
  let d =
    Policy.open_policy [ deny [ "Physician" ] [ holder_patient ] M.s_n ]
  in
  (* Physician with no join context: allowed (the denial needs the
     Holder-Patient association present). *)
  check Alcotest.bool "no context allowed" true
    (Policy.can_view d (profile [ "Physician" ]) M.s_n);
  check Alcotest.bool "exact context denied" false
    (Policy.can_view d
       (profile [ "Physician" ] ~join:(Joinpath.singleton holder_patient))
       M.s_n);
  (* Containing context: still denied. *)
  let bigger =
    Joinpath.of_list
      [ holder_patient; Joinpath.Cond.eq (M.attr "Citizen") (M.attr "Holder") ]
  in
  check Alcotest.bool "bigger context denied" false
    (Policy.can_view d (profile [ "Physician" ] ~join:bigger) M.s_n)

let test_no_denials_allows_everything () =
  let free = Policy.open_policy [] in
  check Alcotest.bool "everything allowed" true
    (Policy.can_view free
       (profile [ "Holder"; "Disease"; "HealthAid"; "Treatment" ])
       M.s_i)

let test_accessors () =
  check Alcotest.bool "is_open" true (Policy.is_open open_medical);
  check Alcotest.bool "closed is not open" false (Policy.is_open M.policy);
  check Alcotest.int "two denials" 2 (List.length (Policy.denials open_medical));
  check Alcotest.int "closed has no denials" 0
    (List.length (Policy.denials M.policy));
  let extra = deny [ "Plan" ] [] M.s_h in
  let p = Policy.add_denial extra open_medical in
  check Alcotest.int "denial added" 3 (List.length (Policy.denials p));
  check Alcotest.int "denial removed" 2
    (List.length (Policy.denials (Policy.remove_denial extra p)));
  check Alcotest.bool "no positive rule cited" true
    (Helpers.authorizing_rule open_medical (profile [ "Holder" ]) M.s_i = None)

let test_planning_under_open_policy () =
  (* The whole pipeline runs unchanged under an open policy. *)
  let plan = M.example_plan () in
  match Planner.Safe_planner.plan M.catalog open_medical plan with
  | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    check Alcotest.bool "safe" true
      (Planner.Safety.is_safe M.catalog open_medical plan assignment);
    (match
       Distsim.Engine.execute M.catalog ~instances:M.instances plan assignment
     with
     | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
     | Ok { result; network; _ } ->
       check Helpers.relation "correct result"
         (Distsim.Engine.centralized ~instances:M.instances plan)
         result;
       check Alcotest.bool "audit clean (open mode)" true
         (Distsim.Audit.is_clean open_medical network))

let test_denial_blocks_planning () =
  (* Deny S_N the Insurance data: n2 loses its regular-join master and
     the example query becomes infeasible (S_N was the only option). *)
  let restrictive =
    Policy.open_policy
      [
        deny [ "Plan" ] [] M.s_n;
        deny [ "Holder" ] [] M.s_n;
        (* and block the mirror option at S_I *)
        deny [ "Citizen" ] [] M.s_i;
        deny [ "HealthAid" ] [] M.s_i;
      ]
  in
  match Planner.Safe_planner.plan M.catalog restrictive (M.example_plan ()) with
  | Error f -> check Alcotest.int "blocked at n2" 2 f.failed_at
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_flows_respect_denials () =
  (* Whatever the planner picks under an open policy, no transmitted
     view violates a denial — checked via the audit on execution. *)
  let policies =
    [
      Policy.open_policy [ deny [ "Plan" ] [] M.s_h ];
      Policy.open_policy [ deny [ "Holder"; "Patient" ] [] M.s_n ];
      open_medical;
    ]
  in
  List.iter
    (fun policy ->
      let plan = M.example_plan () in
      match Planner.Safe_planner.plan M.catalog policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } ->
        (match
           Distsim.Engine.execute M.catalog ~instances:M.instances plan
             assignment
         with
         | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
         | Ok { network; _ } ->
           check Alcotest.bool "audit clean" true
             (Distsim.Audit.is_clean policy network)))
    policies

let suite =
  [
    c "default allow" `Quick test_default_allow;
    c "single-attribute denial, upward closed" `Quick
      test_single_attribute_denial;
    c "association denial" `Quick test_association_denial;
    c "join-path containment" `Quick test_path_containment;
    c "no denials allows everything" `Quick test_no_denials_allows_everything;
    c "accessors" `Quick test_accessors;
    c "planning and audit under an open policy" `Quick
      test_planning_under_open_policy;
    c "denials can block planning" `Quick test_denial_blocks_planning;
    c "flows respect denials" `Quick test_flows_respect_denials;
  ]
