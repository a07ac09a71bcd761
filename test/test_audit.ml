open Relalg
open Distsim
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let safe_network () =
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  match Engine.execute M.catalog ~instances:M.instances plan assignment with
  | Ok { network; _ } -> network
  | Error e -> Alcotest.failf "%a" Engine.pp_error e

let test_clean_run_cites_rules () =
  match Audit.run M.policy (safe_network ()) with
  | Error _ -> Alcotest.fail "safe run flagged"
  | Ok entries ->
    check Alcotest.int "three entries" 3 (List.length entries);
    List.iter
      (fun (e : Audit.entry) ->
        match e.admitted_by with
        | Some rule ->
          (* The cited rule is granted to the message's receiver. *)
          check Helpers.server "rule matches receiver"
            e.receiver rule.Authz.Authorization.server
        | None -> Alcotest.fail "clean entry without a rule")
      entries

(* Hospital shipped whole to the insurer: no rule admits it. *)
let unauthorized_network () =
  let n = Network.create () in
  let data = Option.get (M.instances "Hospital") in
  let (_ : Relation.t) =
    Network.send n ~sender:M.s_h ~receiver:M.s_i
      ~profile:(Authz.Profile.of_base M.hospital)
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"leak" data
  in
  n

(* A message claiming a smaller profile than the data it carries. *)
let mismatch_network () =
  let n = Network.create () in
  let data = Option.get (M.instances "Insurance") in
  let lying_profile =
    Authz.Profile.make
      ~pi:(Attribute.Set.singleton (M.attr "Holder"))
      ~join:Joinpath.empty ~sigma:Attribute.Set.empty
  in
  let (_ : Relation.t) =
    Network.send n ~sender:M.s_i ~receiver:M.s_n ~profile:lying_profile
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"underdeclared" data
  in
  n

let test_unauthorized_flow_flagged () =
  match Audit.run M.policy (unauthorized_network ()) with
  | Error [ v ] ->
    check Alcotest.bool "unauthorized" true (v.Audit.reason = Audit.Unauthorized)
  | _ -> Alcotest.fail "leak not flagged"

let test_header_mismatch_flagged () =
  match Audit.run M.policy (mismatch_network ()) with
  | Error [ { Audit.reason = Audit.Header_mismatch { header; claimed }; _ } ] ->
    check Alcotest.int "header wider" 2 (Attribute.Set.cardinal header);
    check Alcotest.int "claim narrower" 1 (Attribute.Set.cardinal claimed)
  | _ -> Alcotest.fail "mismatch not flagged"

let test_is_clean () =
  check Alcotest.bool "clean" true (Audit.is_clean M.policy (safe_network ()));
  check Alcotest.bool "empty network clean" true
    (Audit.is_clean M.policy (Network.create ()))

let test_mixed_report_collects_all_violations () =
  let n = Network.create () in
  let insurance = Option.get (M.instances "Insurance") in
  let hospital = Option.get (M.instances "Hospital") in
  let send_ok () =
    ignore
      (Network.send n ~sender:M.s_i ~receiver:M.s_n
         ~profile:(Authz.Profile.of_base M.insurance)
         ~purpose:(Network.Full_operand { join = 0 })
         ~note:"fine" insurance)
  in
  let send_bad () =
    ignore
      (Network.send n ~sender:M.s_h ~receiver:M.s_i
         ~profile:(Authz.Profile.of_base M.hospital)
         ~purpose:(Network.Full_operand { join = 0 })
         ~note:"leak" hospital)
  in
  send_ok ();
  send_bad ();
  send_bad ();
  match Audit.run M.policy n with
  | Error vs -> check Alcotest.int "both leaks reported" 2 (List.length vs)
  | Ok _ -> Alcotest.fail "leaks unreported"

(* Fault injection: retransmitted and undelivered messages are judged
   exactly like first attempts — same profile, same admitting rule; a
   lost emission never escapes the audit. *)
let test_retransmission_chain_same_rule () =
  let n = Network.create () in
  let data = Option.get (M.instances "Insurance") in
  let profile = Authz.Profile.of_base M.insurance in
  let send attempt delivery =
    ignore
      (Network.send n ~attempt ~delivery ~sender:M.s_i ~receiver:M.s_n
         ~profile
         ~purpose:(Network.Full_operand { join = 0 })
         ~note:"retry chain" data)
  in
  send 1 Network.Dropped;
  send 2 Network.Corrupted;
  send 3 Network.Delivered;
  match Audit.run M.policy n with
  | Error _ -> Alcotest.fail "authorized retry chain flagged"
  | Ok entries ->
    check Alcotest.int "every attempt audited" 3 (List.length entries);
    let rules =
      List.map
        (fun (e : Audit.entry) ->
          match e.admitted_by with
          | Some rule -> Fmt.str "%a" Authz.Authorization.pp rule
          | None -> Alcotest.fail "attempt admitted without a rule")
        entries
    in
    (match rules with
     | first :: rest ->
       List.iter
         (fun r -> check Alcotest.string "same admitting rule" first r)
         rest
     | [] -> assert false)

let test_dropped_leak_still_flagged () =
  (* A drop is not an excuse: the emission happened, so an unauthorized
     flow is a violation even though nothing arrived. *)
  let n = Network.create () in
  let data = Option.get (M.instances "Hospital") in
  let (_ : Relation.t) =
    Network.send n ~delivery:Network.Dropped ~sender:M.s_h ~receiver:M.s_i
      ~profile:(Authz.Profile.of_base M.hospital)
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"dropped leak" data
  in
  match Audit.run M.policy n with
  | Error [ v ] ->
    check Alcotest.bool "unauthorized" true
      (v.Audit.reason = Audit.Unauthorized)
  | _ -> Alcotest.fail "dropped leak not flagged"

let test_corrupted_retransmission_header_mismatch () =
  (* A corrupted retransmission whose declared profile no longer
     matches the bytes it carries is a header mismatch, attempt number
     notwithstanding. *)
  let n = Network.create () in
  let data = Option.get (M.instances "Insurance") in
  let lying =
    Authz.Profile.make
      ~pi:(Attribute.Set.singleton (M.attr "Holder"))
      ~join:Joinpath.empty ~sigma:Attribute.Set.empty
  in
  let (_ : Relation.t) =
    Network.send n ~attempt:2 ~delivery:Network.Corrupted ~sender:M.s_i
      ~receiver:M.s_n ~profile:lying
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"corrupted retry" data
  in
  match Audit.run M.policy n with
  | Error [ { Audit.reason = Audit.Header_mismatch _; message; _ } ] ->
    check Alcotest.int "on the retransmission" 2 message.Network.attempt
  | _ -> Alcotest.fail "corrupted retransmission not flagged"

(* Satellite: the text renderer covers every [reason] variant, and a
   header mismatch spells out both attribute sets plus the diff in each
   direction. *)
let test_reason_rendering () =
  let data = Option.get (M.instances "Insurance") in
  (* carries {Holder, Plan} *)
  let violation reason =
    {
      Audit.message =
        {
          Network.seq = 0;
          sender = M.s_i;
          receiver = M.s_n;
          data;
          payload = Network.Rows;
          profile = Authz.Profile.of_base M.insurance;
          path_id = Authz.Intern.path_id Joinpath.empty;
          purpose = Network.Full_operand { join = 0 };
          note = "test";
          attempt = 1;
          delivery = Network.Delivered;
        };
      reason;
    }
  in
  let render reason = Fmt.str "%a" Audit.pp_violation (violation reason) in
  let has sub s = check Alcotest.bool sub true (Helpers.contains ~sub s) in
  let lacks sub s = check Alcotest.bool sub false (Helpers.contains ~sub s) in
  (* Unauthorized *)
  has "no authorization admits" (render Audit.Unauthorized);
  let header = Relation.attribute_set data in
  (* Under-declaration: transmitted ⊃ declared. *)
  let narrow =
    render
      (Audit.Header_mismatch
         { header; claimed = Attribute.Set.singleton (M.attr "Holder") })
  in
  has "transmitted attributes" narrow;
  has "declared profile" narrow;
  has "Plan" narrow;
  has "transmitted but not declared" narrow;
  lacks "declared but not transmitted" narrow;
  (* Over-declaration: declared ⊃ transmitted. *)
  let wide =
    render
      (Audit.Header_mismatch
         {
           header;
           claimed = Attribute.Set.add (M.attr "HealthAid") header;
         })
  in
  has "declared but not transmitted" wide;
  has "HealthAid" wide;
  lacks "transmitted but not declared" wide;
  (* Disjoint drift: both diff clauses at once. *)
  let both =
    render
      (Audit.Header_mismatch
         { header; claimed = Attribute.Set.singleton (M.attr "HealthAid") })
  in
  has "transmitted but not declared" both;
  has "declared but not transmitted" both

(* ------------------------------------------------------------------ *)
(* The one-probe audit against the two-probe reference.                *)

type verdict =
  | Admitted of Authz.Authorization.t option
  | Denied
  | Mismatch

(* The reference decision for one message: [can_view] for the verdict,
   then [authorizing_rule] for the citation, two probes where the audit
   makes one. *)
let reference policy (m : Network.message) =
  if
    not
      (Attribute.Set.equal
         (Relation.attribute_set m.data)
         m.profile.Authz.Profile.pi)
  then Mismatch
  else if Authz.Policy.can_view policy m.profile m.receiver then
    Admitted (Helpers.authorizing_rule policy m.profile m.receiver)
  else Denied

let equal_verdict a b =
  match (a, b) with
  | Admitted r, Admitted r' -> Option.equal Authz.Authorization.equal r r'
  | Denied, Denied | Mismatch, Mismatch -> true
  | (Admitted _ | Denied | Mismatch), _ -> false

(* [Audit.run] agrees with the reference on every message: a clean log
   yields one entry per message, with the reference's citation and the
   message's own sender, receiver, join node, rows and bytes; otherwise
   exactly the messages the reference rejects, for the same reason. *)
let agrees ~request policy network =
  let messages = Network.messages network in
  let expected = List.map (fun m -> (m, reference policy m)) messages in
  let admitted = function Admitted _ -> true | Denied | Mismatch -> false in
  match Audit.run ~request policy network with
  | Ok entries ->
    List.for_all (fun (_, v) -> admitted v) expected
    && List.length entries = List.length messages
    && List.for_all2
         (fun (e : Audit.entry) ((m : Network.message), v) ->
           e.request = request && e.seq = m.seq
           && Server.equal e.sender m.sender
           && Server.equal e.receiver m.receiver
           && e.join = Network.join_of m.purpose
           && e.rows = Relation.cardinality m.data
           && e.bytes = Network.wire_bytes m
           && equal_verdict (Admitted e.admitted_by) v)
         entries expected
  | Error violations ->
    let rejected = List.filter (fun (_, v) -> not (admitted v)) expected in
    List.length violations = List.length rejected
    && List.for_all2
         (fun (viol : Audit.violation) ((m : Network.message), v) ->
           viol.message.seq = m.seq
           && equal_verdict v
                (match viol.reason with
                 | Audit.Unauthorized -> Denied
                 | Audit.Header_mismatch _ -> Mismatch))
         violations rejected

(* An open policy whose denials come from a generated closed one: some
   of its rules denied whole, others cut down to one attribute and no
   join path, so that many flows match a denial. *)
let open_of rng policy =
  Authz.Policy.open_policy
    (List.filter_map
       (fun (r : Authz.Authorization.t) ->
         match Workload.Rng.int rng 3 with
         | 0 ->
           Some
             (Authz.Authorization.make_denial ~attrs:r.attrs ~path:r.path
                r.server)
         | 1 ->
           Some
             (Authz.Authorization.make_denial
                ~attrs:
                  (Attribute.Set.singleton
                     (Workload.Rng.choose rng
                        (Attribute.Set.elements r.attrs)))
                ~path:Joinpath.empty r.server)
         | _ -> None)
       (Authz.Policy.authorizations policy))

(* The messages of a planned execution over a generated system, audited
   against the policy that planned it, a sparser closed policy and two
   open ones. *)
let prop_audit_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"Audit.run = can_view then authorizing_rule"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let module W = Workload in
      let rng = W.Rng.make ~seed in
      let sys =
        W.System_gen.generate rng ~relations:5 ~servers:5 ~extra:2
          ~topology:(W.Rng.choose rng W.System_gen.[ Chain; Star ])
      in
      let planned = W.Authz_gen.generate rng ~density:0.8 sys in
      let sparse = W.Authz_gen.generate rng ~density:0.2 sys in
      let policies =
        [ planned; sparse; open_of rng planned; Authz.Policy.open_policy [] ]
      in
      match W.Query_gen.generate_plan rng ~joins:3 sys with
      | None -> true
      | Some plan -> (
        match Planner.Safe_planner.plan sys.catalog planned plan with
        | Error _ -> true
        | Ok { assignment; _ } -> (
          let instances = W.Data_gen.instances rng ~rows:6 sys in
          match Engine.execute sys.catalog ~instances plan assignment with
          | Error _ -> false
          | Ok { network; _ } ->
            List.for_all (fun p -> agrees ~request:seed p network) policies)))

(* The fixed networks above, violations included, under the closed
   medical policy and an open one that denies the insurer the
   hospital's patients. *)
let test_audit_matches_reference_fixed () =
  let open_medical =
    Authz.Policy.open_policy
      [
        Authz.Authorization.make_denial
          ~attrs:(Attribute.Set.singleton (M.attr "Patient"))
          ~path:Joinpath.empty M.s_i;
      ]
  in
  List.iter
    (fun (name, network) ->
      List.iter
        (fun (mode, policy) ->
          check Alcotest.bool (name ^ " under " ^ mode) true
            (agrees ~request:7 policy network))
        [ ("closed", M.policy); ("open", open_medical) ])
    [
      ("safe run", safe_network ());
      ("unauthorized", unauthorized_network ());
      ("header mismatch", mismatch_network ());
    ]

let suite =
  [
    c "clean run cites admitting rules" `Quick test_clean_run_cites_rules;
    c "unauthorized flow flagged" `Quick test_unauthorized_flow_flagged;
    c "under-declared profile flagged" `Quick test_header_mismatch_flagged;
    c "is_clean" `Quick test_is_clean;
    c "all violations collected" `Quick test_mixed_report_collects_all_violations;
    c "retransmission chain cites one rule" `Quick
      test_retransmission_chain_same_rule;
    c "dropped leak still flagged" `Quick test_dropped_leak_still_flagged;
    c "corrupted retransmission mismatch" `Quick
      test_corrupted_retransmission_header_mismatch;
    c "every reason variant renders" `Quick test_reason_rendering;
    c "fixed networks match the reference audit" `Quick
      test_audit_matches_reference_fixed;
    Helpers.qcheck prop_audit_matches_reference;
  ]
