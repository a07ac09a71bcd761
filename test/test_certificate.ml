(* Proof-carrying safety: the certificate language and its independent
   linear-time checker. Genuine certificates — chase traces, plan
   certificates (base and chase-derived), leak counterexamples,
   failover replacements, federation responses — must all check; a
   seeded battery of distinct forgeries must all be rejected, each as
   a CISQP050. *)

open Relalg
module C = Analysis.Certificate
module K = Analysis.Knowledge
module D = Analysis.Diagnostic
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let medical_assignment () =
  let plan = M.example_plan () in
  match Planner.Safe_planner.plan M.catalog M.policy plan with
  | Ok r -> (plan, r.Planner.Safe_planner.assignment)
  | Error f ->
    Alcotest.failf "planning failed: %a" Planner.Safe_planner.pp_failure f

let medical_cert () =
  let plan, assignment = medical_assignment () in
  match C.emit_plan M.catalog M.policy plan assignment with
  | Ok cert -> (plan, cert)
  | Error msg -> Alcotest.failf "emission failed: %s" msg

let check_medical ?revalidate plan cert =
  C.check_plan ?revalidate ~joins:M.join_graph M.catalog M.policy plan cert

let no_failures what fs =
  check Alcotest.(list string) what []
    (List.map (fun f -> Fmt.str "%a" C.pp_failure f) fs)

let rejected what fs = check Alcotest.bool what true (fs <> [])

(* A structurally valid authorization the medical policy does not
   grant: some Figure-3 rule re-targeted at a server that lacks it. *)
let ungranted () =
  let servers = [ M.s_i; M.s_h; M.s_n; M.s_d ] in
  let candidates =
    List.concat_map
      (fun (a : Authz.Authorization.t) ->
        List.map
          (fun s ->
            Authz.Authorization.make_exn ~attrs:a.Authz.Authorization.attrs
              ~path:a.Authz.Authorization.path s)
          servers)
      (Authz.Policy.authorizations M.policy)
  in
  match
    List.find_opt (fun a -> not (Authz.Policy.mem a M.policy)) candidates
  with
  | Some a -> a
  | None -> Alcotest.fail "medical policy grants everything everywhere?"

(* ------------------------------------------------------------------ *)
(* Derivation traces.                                                  *)

let test_chase_trace_checks () =
  let closure, trace = Authz.Chase.close_trace ~joins:M.join_graph M.policy in
  check Alcotest.bool "medical chase derives rules" true (trace <> []);
  let rules = C.rules_of_trace M.policy trace in
  check Alcotest.int "universe = base + trace"
    (Authz.Policy.cardinality M.policy + List.length trace)
    (List.length rules);
  no_failures "trace replays" (C.check_rules ~joins:M.join_graph M.policy rules);
  (* Every rule of the closure is somewhere in the universe. *)
  List.iter
    (fun a ->
      check Alcotest.bool "closure rule in universe" true
        (List.exists
           (fun (r : C.rule) -> Authz.Authorization.equal r.C.auth a)
           rules))
    (Authz.Policy.authorizations closure)

let medical_rules () =
  let _, trace = Authz.Chase.close_trace ~joins:M.join_graph M.policy in
  C.rules_of_trace M.policy trace

let composed_index (rules : C.rule list) =
  match
    List.mapi (fun i r -> (i, r)) rules
    |> List.find_opt (fun (_, (r : C.rule)) -> r.C.just <> C.Granted)
  with
  | Some (i, _) -> i
  | None -> Alcotest.fail "no composed rule in the medical trace"

let forge_just rules i just =
  List.mapi (fun j (r : C.rule) -> if j = i then { r with C.just } else r) rules

let test_forged_premise () =
  let rules = medical_rules () in
  let i = composed_index rules in
  let right, via =
    match (List.nth rules i).C.just with
    | C.Composed { right; via; _ } -> (right, via)
    | C.Granted -> assert false
  in
  (* Forgery 1: premise out of range. *)
  rejected "out-of-range premise rejected"
    (C.check_rules ~joins:M.join_graph M.policy
       (forge_just rules i
          (C.Composed { left = List.length rules; right; via })));
  (* Forgery 2: forward premise (cites itself) — the single-pass
     checker must refuse to look ahead. *)
  rejected "forward premise rejected"
    (C.check_rules ~joins:M.join_graph M.policy
       (forge_just rules i (C.Composed { left = i; right; via })))

let test_forged_composition_step () =
  let rules = medical_rules () in
  let i = composed_index rules in
  let left, right =
    match (List.nth rules i).C.just with
    | C.Composed { left; right; _ } -> (left, right)
    | C.Granted -> assert false
  in
  (* Forgery 3: a composition step over a condition outside the join
     graph (Patient–Patient is no line of Figure 1). *)
  let bogus =
    Joinpath.Cond.make ~left:[ M.attr "Patient" ] ~right:[ M.attr "Patient" ]
  in
  rejected "wrong composition step rejected"
    (C.check_rules ~joins:M.join_graph M.policy
       (forge_just rules i (C.Composed { left; right; via = bogus })))

let test_not_granted () =
  (* Forgery 4: a Granted rule the base policy never granted. *)
  rejected "ungranted rule rejected"
    (C.check_rules ~joins:M.join_graph M.policy
       [ { C.auth = ungranted (); just = C.Granted } ])

(* ------------------------------------------------------------------ *)
(* Plan certificates.                                                  *)

let test_plan_cert_checks () =
  let plan, cert = medical_cert () in
  check Alcotest.bool "flows evidenced" true (cert.C.flows <> []);
  no_failures "genuine certificate accepted" (check_medical plan cert)

let test_plan_cert_under_chase () =
  (* Plan against the closure; the certificate must replay any derived
     witness against the *base* policy via its recorded trace. *)
  let handle = Authz.Chase.closed_policy ~joins:M.join_graph M.policy in
  let closure = Authz.Chase.closure handle in
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog closure plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f ->
      Alcotest.failf "planning failed: %a" Planner.Safe_planner.pp_failure f
  in
  match C.emit_plan ~closed:handle M.catalog closure plan assignment with
  | Error msg -> Alcotest.failf "emission failed: %s" msg
  | Ok cert ->
    no_failures "chase-closed certificate accepted against the base"
      (check_medical plan cert)

let test_json_round_trip () =
  let plan, cert = medical_cert () in
  let json = C.plan_to_json cert in
  let cert' = Helpers.check_ok Fmt.string (C.plan_of_json json) in
  check Alcotest.string "serialization idempotent" json (C.plan_to_json cert');
  no_failures "round-tripped certificate accepted" (check_medical plan cert');
  (* Garbage is a typed parse error, not an exception. *)
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (C.plan_of_json "{\"kind\":\"nope\"}"));
  check Alcotest.bool "non-JSON rejected" true
    (Result.is_error (C.plan_of_json "not json at all"))

let test_forged_witness () =
  let plan, cert = medical_cert () in
  let f0, rest =
    match cert.C.flows with f :: r -> (f, r) | [] -> Alcotest.fail "no flows"
  in
  (* Forgery 5: point a flow's witness at a rule whose evidence (path
     equality, attribute subset, or server) does not cover the
     profile. *)
  let genuine = List.nth cert.C.rules f0.C.witness in
  let wrong =
    match
      List.mapi (fun i r -> (i, r)) cert.C.rules
      |> List.find_opt (fun (_, (r : C.rule)) ->
             not (Authz.Authorization.equal r.C.auth genuine.C.auth))
    with
    | Some (i, _) -> i
    | None -> Alcotest.fail "all rules identical?"
  in
  rejected "wrong witness rejected"
    (check_medical plan
       { cert with C.flows = { f0 with C.witness = wrong } :: rest });
  (* Forgery 6: witness index out of range. *)
  rejected "out-of-range witness rejected"
    (check_medical plan
       {
         cert with
         C.flows = { f0 with C.witness = List.length cert.C.rules } :: rest;
       })

let test_dropped_and_fabricated_flows () =
  let plan, cert = medical_cert () in
  let f0, rest =
    match cert.C.flows with f :: r -> (f, r) | [] -> Alcotest.fail "no flows"
  in
  (* Forgery 7: a flow the plan performs but the certificate hides. *)
  rejected "dropped flow rejected"
    (check_medical plan { cert with C.flows = rest });
  (* Forgery 8: a flow the certificate claims but the plan never
     performs. *)
  rejected "fabricated flow rejected"
    (check_medical plan { cert with C.flows = f0 :: f0 :: rest })

let test_stale_epoch_and_revalidation () =
  let plan, cert = medical_cert () in
  (* Forgery 9: stale epoch — strict mode rejects; the revalidation
     entry point ignores the pin and replays the evidence against the
     policy it is handed. *)
  let stale = { cert with C.epoch = "0000" } in
  rejected "stale epoch rejected" (check_medical plan stale);
  no_failures "revalidation ignores the pin"
    (check_medical ~revalidate:true plan stale);
  (* A policy that still grants every witness revalidates; one missing
     a witness does not. *)
  let grown = Authz.Policy.add (ungranted ()) M.policy in
  check Alcotest.bool "grown policy changes the epoch" true
    (C.epoch grown <> C.epoch M.policy);
  no_failures "revalidates against a grown policy"
    (C.check_plan ~revalidate:true ~joins:M.join_graph M.catalog grown plan
       cert);
  rejected "strict check against a grown policy is stale"
    (C.check_plan ~joins:M.join_graph M.catalog grown plan cert);
  let witness = List.nth cert.C.rules (List.hd cert.C.flows).C.witness in
  let shrunk =
    List.fold_left
      (fun p a -> Authz.Policy.add a p)
      Authz.Policy.empty
      (List.filter
         (fun a -> not (Authz.Authorization.equal a witness.C.auth))
         (Authz.Policy.authorizations M.policy))
  in
  rejected "revalidation catches a revoked witness"
    (C.check_plan ~revalidate:true ~joins:M.join_graph M.catalog shrunk plan
       cert)

let test_open_policy_refused () =
  let plan, cert = medical_cert () in
  let open_policy = Authz.Policy.open_policy [] in
  check Alcotest.bool "open policy cannot anchor a check" true
    (List.mem C.Open_policy
       (C.check_plan ~joins:M.join_graph M.catalog open_policy plan cert));
  let p, a = medical_assignment () in
  check Alcotest.bool "emission refuses open policies" true
    (Result.is_error (C.emit_plan M.catalog open_policy p a))

(* Under an open-mode policy [certify]'s proof is [Safety.check]
   against the denials: [Ok None] for a safe assignment, [Error] naming
   the first denied flow otherwise, and [Error] (never an exception)
   for an incomplete assignment. *)
let test_certify_open_mode () =
  let open_medical = Test_open_policy.open_medical in
  let plan = M.example_plan () in
  (match Planner.Safe_planner.plan M.catalog open_medical plan with
   | Error f ->
     Alcotest.failf "planning failed: %a" Planner.Safe_planner.pp_failure f
   | Ok { assignment; _ } ->
     check Alcotest.bool "safe open-mode plan proved" true
       (C.certify M.catalog open_medical plan assignment = Ok None));
  let plan, assignment = medical_assignment () in
  let deny_n =
    Authz.Policy.open_policy
      [ Test_open_policy.deny [ "Holder"; "Plan" ] [] M.s_n ]
  in
  (match C.certify M.catalog deny_n plan assignment with
   | Ok _ -> Alcotest.fail "a denied flow was admitted"
   | Error msg ->
     check Alcotest.bool
       (Fmt.str "names the n2 flow S_I -> S_N: %s" msg)
       true
       (Helpers.contains ~sub:"n2: S_I -> S_N" msg));
  let incomplete =
    List.fold_left
      (fun a (node, e) ->
        if node = 4 then a else Planner.Assignment.set node e a)
      Planner.Assignment.empty
      (Planner.Assignment.bindings assignment)
  in
  List.iter
    (fun (what, policy) ->
      check Alcotest.bool
        (what ^ ": incomplete assignment refused")
        true
        (Result.is_error (C.certify M.catalog policy plan incomplete)))
    [ ("open", open_medical); ("closed", M.policy) ]

let test_failures_are_cisqp050 () =
  let plan, cert = medical_cert () in
  let diags =
    C.to_diagnostics (check_medical plan { cert with C.epoch = "x" })
  in
  check Alcotest.bool "at least one diagnostic" true (diags <> []);
  List.iter
    (fun (d : D.t) ->
      check Alcotest.string "code" "CISQP050" d.D.code;
      check Alcotest.bool "error severity" true (d.D.severity = D.Error))
    diags

(* ------------------------------------------------------------------ *)
(* Leak certificates.                                                  *)

let medical_leak_fixture () =
  let plan, assignment = medical_assignment () in
  let flows =
    Helpers.check_ok Planner.Safety.pp_error
      (Planner.Safety.flows M.catalog plan assignment)
  in
  let deliveries = C.deliveries_of_batches [ flows ] in
  let cur =
    K.cursor ~joins:M.join_graph (K.of_flow_batches M.catalog [ flows ])
  in
  let snap = K.snapshot cur in
  (deliveries, cur, K.leaks M.policy snap.K.knowledge)

let test_leak_cert_checks () =
  let deliveries, cur, leaks = medical_leak_fixture () in
  check Alcotest.bool "medical run leaks" true (leaks <> []);
  List.iter
    (fun (l : K.leak) ->
      let (it : K.item) = l.K.item in
      match K.explain cur M.catalog l.K.server it.K.profile with
      | None -> Alcotest.fail "no counterexample reconstructed"
      | Some tree ->
        let cert =
          {
            C.epoch = C.epoch M.policy;
            server = l.K.server;
            profile = it.K.profile;
            tree;
          }
        in
        no_failures "counterexample accepted"
          (C.check_leak ~joins:M.join_graph M.catalog M.policy ~deliveries
             cert);
        (* The witness renders for users. *)
        check Alcotest.bool "rendering is non-empty" true
          (String.length (Fmt.str "%a" C.pp_tree tree) > 0))
    leaks

let test_forged_leak_certs () =
  let deliveries, cur, leaks = medical_leak_fixture () in
  let l = List.hd leaks in
  let (it : K.item) = l.K.item in
  let tree =
    match K.explain cur M.catalog l.K.server it.K.profile with
    | Some t -> t
    | None -> Alcotest.fail "no counterexample"
  in
  let cert tree =
    {
      C.epoch = C.epoch M.policy;
      server = l.K.server;
      profile = it.K.profile;
      tree;
    }
  in
  let check_it ?revalidate policy c =
    C.check_leak ?revalidate ~joins:M.join_graph M.catalog policy ~deliveries c
  in
  (* Forgery 10: truncated join tree — a subtree alone no longer
     derives the claimed profile. *)
  (match tree with
  | C.Joined { left; _ } ->
    rejected "truncated tree rejected" (check_it M.policy (cert left))
  | _ -> Alcotest.fail "leak tree has no join step");
  (* Forgery 11: a Received leaf citing a delivery that never
     happened. *)
  let rec forge_delivery = function
    | C.Received { sender; profile; _ } ->
      C.Received { seq = 9999; sender; profile }
    | C.Joined { via; left; right } ->
      C.Joined { via; left = forge_delivery left; right = forge_delivery right }
    | C.Stored _ as t -> t
  in
  rejected "forged delivery rejected"
    (check_it M.policy (cert (forge_delivery tree)));
  (* No leak, no certificate: once the profile is granted to the
     server, the 'counterexample' proves nothing. *)
  let profile = it.K.profile in
  let granted =
    Authz.Policy.add
      (Authz.Authorization.make_exn
         ~attrs:
           (Attribute.Set.union profile.Authz.Profile.pi
              profile.Authz.Profile.sigma)
         ~path:profile.Authz.Profile.join l.K.server)
      M.policy
  in
  rejected "authorized profile is not a leak"
    (check_it ~revalidate:true granted (cert tree))

(* ------------------------------------------------------------------ *)
(* Deliveries mirror Knowledge numbering.                              *)

let test_deliveries_numbering () =
  let plan, assignment = medical_assignment () in
  let flows =
    Helpers.check_ok Planner.Safety.pp_error
      (Planner.Safety.flows M.catalog plan assignment)
  in
  let ds = C.deliveries_of_batches [ flows; flows ] in
  check Alcotest.int "one delivery per flow"
    (2 * List.length flows)
    (List.length ds);
  List.iteri
    (fun i (d : C.delivery) -> check Alcotest.int "seq is global" i d.C.d_seq)
    ds

(* ------------------------------------------------------------------ *)
(* Recover and Federation carry certificates.                          *)

let test_recover_certifies () =
  (* Scan seeds for a workload case that fails over, then demand
     certificates on the final assignment and every failover, all
     accepted by the checker. *)
  let open Workload in
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 80 do
    incr seed;
    let seed = !seed in
    let rng = Rng.make ~seed:(900_000 + seed) in
    let relations = 4 + (seed mod 3) in
    let sys =
      System_gen.generate ~replication:0.6 rng ~relations ~servers:relations
        ~extra:2 ~topology:System_gen.Chain
    in
    let policy = Authz_gen.generate rng ~density:0.9 sys in
    match Query_gen.generate_plan rng ~joins:2 sys with
    | None -> ()
    | Some plan -> (
      match
        Planner.Third_party.plan ~helpers:[] sys.System_gen.catalog policy plan
      with
      | Error _ -> ()
      | Ok _ -> (
        let instances = Data_gen.instances rng ~rows:8 sys in
        let fault =
          Distsim.Fault.random_plan rng ~servers:(System_gen.servers sys)
        in
        match
          Distsim.Recover.execute sys.System_gen.catalog policy ~instances
            ~fault plan
        with
        | Error _ -> ()
        | Ok r when r.Distsim.Recover.failovers = [] -> ()
        | Ok r ->
          found := true;
          let recheck what = function
            | None -> Alcotest.failf "missing %s certificate" what
            | Some cert ->
              no_failures
                (what ^ " certificate accepted")
                (C.check_plan ~joins:sys.System_gen.join_graph
                   sys.System_gen.catalog policy plan cert)
          in
          recheck "final" r.Distsim.Recover.certificate;
          List.iter
            (fun (f : Distsim.Recover.failover) ->
              recheck "failover" f.Distsim.Recover.certificate)
            r.Distsim.Recover.failovers))
  done;
  check Alcotest.bool "found a failover case" true !found

let test_federation_response_certified () =
  let fed =
    Federation.create ~catalog:M.catalog ~policy:M.policy
      ~instances:M.instances ()
  in
  let r =
    Helpers.check_ok Federation.pp_error
      (Federation.query fed M.example_query_sql)
  in
  (match r.Federation.certificate with
  | None -> Alcotest.fail "response carries no certificate"
  | Some cert ->
    no_failures "response certificate accepted"
      (C.check_plan ~joins:M.join_graph M.catalog M.policy r.Federation.plan
         cert));
  (* The cache serves the same certificate. *)
  let r2 =
    Helpers.check_ok Federation.pp_error
      (Federation.query fed M.example_query_sql)
  in
  check Alcotest.bool "cached response certified" true
    (r2.Federation.certificate <> None);
  (* Chase-closed federations certify against the pre-chase base. *)
  let fed' =
    Federation.create ~catalog:M.catalog ~policy:M.policy
      ~close_under:M.join_graph ~instances:M.instances ()
  in
  let r3 =
    Helpers.check_ok Federation.pp_error
      (Federation.query fed' M.example_query_sql)
  in
  match r3.Federation.certificate with
  | None -> Alcotest.fail "chased response carries no certificate"
  | Some cert ->
    no_failures "chased response certificate accepted against the base"
      (C.check_plan ~joins:M.join_graph M.catalog M.policy r3.Federation.plan
         cert)

(* ------------------------------------------------------------------ *)
(* Emission differential.                                              *)

module Ch = Authz.Chase
module P = Authz.Policy

(* The reference emitter, with no derivation table: it numbers the
   whole rule universe of [(base, trace)] — base rules, then the
   trace, the first occurrence of a rule id winning — looks each flow's
   witness up in it, then prunes it by one backward sweep to the rules
   the witnesses transitively cite, renumbered in universe order. *)
let reference_emit ~third_party ~base ~trace ~closure catalog plan assignment =
  let rid (a : Authz.Authorization.t) = a.id in
  let index = Hashtbl.create 64 and universe = ref [] in
  let push auth just =
    Hashtbl.add index (rid auth) (Hashtbl.length index);
    universe := { C.auth; just } :: !universe
  in
  List.iter
    (fun a -> if not (Hashtbl.mem index (rid a)) then push a C.Granted)
    (P.authorizations base);
  List.iter
    (fun (d : Ch.derivation) ->
      if not (Hashtbl.mem index (rid d.derived)) then
        match
          (Hashtbl.find_opt index (rid d.left), Hashtbl.find_opt index (rid d.right))
        with
        | Some left, Some right ->
          push d.derived (C.Composed { left; right; via = d.via })
        | _ -> ())
    trace;
  let rules = Array.of_list (List.rev !universe) in
  let witness (f : Planner.Safety.flow) =
    match
      Option.bind (Helpers.authorizing_rule closure f.profile f.receiver) (fun w ->
          Hashtbl.find_opt index (rid w))
    with
    | Some i -> i
    | None -> Alcotest.failf "reference: no witness for the flow at n%d" f.at
  in
  let evidenced =
    List.map
      (fun (f : Planner.Safety.flow) ->
        {
          C.at = f.at;
          sender = f.sender;
          receiver = f.receiver;
          profile = f.profile;
          witness = witness f;
        })
      (Helpers.check_ok Planner.Safety.pp_error
         (Planner.Safety.flows ~third_party catalog plan assignment))
  in
  let keep = Array.make (Array.length rules) false in
  List.iter (fun (ev : C.flow_evidence) -> keep.(ev.C.witness) <- true) evidenced;
  for i = Array.length rules - 1 downto 0 do
    if keep.(i) then
      match rules.(i).C.just with
      | C.Granted -> ()
      | C.Composed { left; right; _ } ->
        keep.(left) <- true;
        keep.(right) <- true
  done;
  let remap = Array.make (Array.length rules) (-1) and next = ref 0 in
  Array.iteri
    (fun i k ->
      if k then begin
        remap.(i) <- !next;
        incr next
      end)
    keep;
  let renumber (r : C.rule) =
    match r.C.just with
    | C.Granted -> r
    | C.Composed { left; right; via } ->
      { r with C.just = C.Composed { left = remap.(left); right = remap.(right); via } }
  in
  {
    C.epoch = C.epoch base;
    third_party;
    order = Some (Plan.relations plan);
    assignment;
    rules =
      List.filteri (fun i _ -> keep.(i)) (Array.to_list rules)
      |> List.map renumber;
    flows =
      List.map
        (fun (ev : C.flow_evidence) -> { ev with C.witness = remap.(ev.C.witness) })
        evidenced;
  }

(* The trace a handle's table was built from, read back off the table:
   the only view of an incrementally extended trace. The reference
   renumbers the universe of the handle's base and this trace itself, so
   a table built over a stale base disagrees with it, and one built over
   a stale trace lacks the witnesses the grown closure cites. *)
let trace_of_table table =
  let entries = Array.of_list (Ch.entries table) in
  List.filter_map
    (function
      | derived, Ch.Composed { left; right; via } ->
        Some { Ch.derived; left = fst entries.(left); right = fst entries.(right); via }
      | _, Ch.Granted -> None)
    (Array.to_list entries)

(* [emit_plan ~closed] prints exactly what the reference prints over
   [trace]; returns the certificate. *)
let emits_as_reference ?(third_party = false) ~trace closed catalog plan
    assignment =
  let closure = Ch.closure closed in
  let expected =
    reference_emit ~third_party ~base:(Ch.policy closed) ~trace ~closure
      catalog plan assignment
  in
  match C.emit_plan ~third_party ~closed catalog closure plan assignment with
  | Error msg -> Alcotest.failf "emission failed: %s" msg
  | Ok cert ->
    check Alcotest.string "byte-identical to the reference emitter"
      (C.plan_to_json expected) (C.plan_to_json cert);
    cert

let test_emission_differential_medical () =
  let closed = Ch.closed_policy ~joins:M.join_graph M.policy in
  let _, trace = Ch.close_trace ~joins:M.join_graph M.policy in
  let closure = Ch.closure closed in
  List.iter
    (fun sql ->
      let plan = Query.to_plan (Sql_parser.parse_exn M.catalog sql) in
      (match Planner.Safe_planner.plan ~closed M.catalog closure plan with
       | Error _ -> ()
       | Ok { assignment; _ } ->
         ignore (emits_as_reference ~trace closed M.catalog plan assignment));
      (match
         Planner.Third_party.plan ~helpers:[] ~closed M.catalog closure plan
       with
       | Error _ -> ()
       | Ok r ->
         ignore
           (emits_as_reference ~third_party:(r.Planner.Third_party.rescues <> [])
              ~trace closed M.catalog plan r.Planner.Third_party.assignment));
      (* Without a handle the table numbers the base rules alone. *)
      match Planner.Safe_planner.plan M.catalog M.policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } ->
        check Alcotest.string (sql ^ ": no-handle emission")
          (C.plan_to_json
             (reference_emit ~third_party:false ~base:M.policy ~trace:[]
                ~closure:M.policy M.catalog plan assignment))
          (C.plan_to_json
             (Helpers.check_ok Fmt.string
                (C.emit_plan M.catalog M.policy plan assignment))))
    [
      M.example_query_sql;
      "SELECT Citizen, HealthAid FROM Nat_registry JOIN Hospital ON Citizen = \
       Patient";
      "SELECT Holder, Plan, Citizen, HealthAid FROM Insurance JOIN \
       Nat_registry ON Holder = Citizen";
      "SELECT Plan, HealthAid, Disease FROM Insurance JOIN Nat_registry ON \
       Holder = Citizen JOIN Hospital ON Holder = Patient";
    ]

(* A 4–5-relation chain, the rules grants draw from (every connected
   subtree up to [max_path] edges, at every server), a base holding
   about half of them, and a few plans. *)
let churn_case seed =
  let open Workload in
  let rng = Rng.make ~seed in
  let relations = 4 + (seed mod 2) in
  let sys =
    System_gen.generate rng ~relations ~servers:relations ~extra:1
      ~topology:System_gen.Chain
  in
  let pool =
    P.authorizations
      (Authz_gen.generate rng ~max_path:(2 + (seed mod 2)) ~attr_keep:1.0
         ~density:1.0 sys)
  in
  let base = P.of_list (Rng.subset rng ~p:0.5 pool) in
  let plans =
    List.filter_map
      (fun joins -> Query_gen.generate_plan rng ~joins sys)
      [ 1; 2; 3 ]
  in
  (sys, pool, base, plans)

(* After a grant the table must be the grown closure's: the certificate
   below cites a witness derived only once [g] is granted, which a table
   left over from before the grant lacks ("witness ... outside the
   derivation trace"). *)
let test_emission_after_grant () =
  let sys, pool, base, plans = churn_case 0 in
  let catalog = sys.Workload.System_gen.catalog in
  let before = Ch.closed_policy ~joins:sys.Workload.System_gen.join_graph base in
  ignore (Ch.table before);
  let fresh_witness g plan =
    let after = Ch.add g before in
    let closure = Ch.closure after in
    match Planner.Safe_planner.plan ~closed:after catalog closure plan with
    | Error _ -> false
    | Ok r ->
      let trace = trace_of_table (Ch.table after) in
      let cert =
        emits_as_reference ~trace after catalog plan
          r.Planner.Safe_planner.assignment
      in
      List.exists
        (fun (ev : C.flow_evidence) ->
          let w = List.nth cert.C.rules ev.C.witness in
          w.C.just <> C.Granted && not (P.mem w.C.auth (Ch.closure before)))
        cert.C.flows
  in
  check Alcotest.bool "a grant derives a new witness" true
    (List.exists
       (fun g ->
         (not (P.mem g base)) && List.exists (fresh_witness g) plans)
       pool)

(* Random grant/revoke churn through one handle, emitting for every
   plan at every state. The reference reads the trace from scratch
   ([close_trace]) where the handle was closed from scratch, and off the
   handle's own table after an incremental grant. A revoke re-closes
   only the revoked rule's server, so it keeps a from-scratch handle
   from scratch (exactly [close_trace] of the shrunk base, numbering
   included) and a grown one grown; every certificate emitted after a
   revoke must also check against the shrunk base. *)
let prop_emission_under_churn =
  QCheck.Test.make ~count:100 ~name:"emit_plan = reference emitter under churn"
    QCheck.(
      pair small_nat (list_of_size Gen.(1 -- 5) (pair bool small_nat)))
    (fun (seed, ops) ->
      let sys, pool, base, plans = churn_case seed in
      let catalog = sys.Workload.System_gen.catalog in
      let joins = sys.Workload.System_gen.join_graph in
      let emit_all ?(revoked = false) h ~scratch =
        let closure = Ch.closure h in
        let trace =
          if scratch then snd (Ch.close_trace ~joins (Ch.policy h))
          else trace_of_table (Ch.table h)
        in
        List.iter
          (fun plan ->
            match Planner.Safe_planner.plan ~closed:h catalog closure plan with
            | Error _ -> ()
            | Ok r ->
              let cert =
                emits_as_reference ~trace h catalog plan
                  r.Planner.Safe_planner.assignment
              in
              if revoked then
                no_failures "a certificate emitted after a revoke checks"
                  (C.check_plan ~revalidate:true ~joins catalog (Ch.policy h)
                     plan cert))
          plans
      in
      let step (h, scratch) (grant, k) =
        let nth l = List.nth l (k mod List.length l) in
        let h, scratch =
          if grant then
            match List.filter (fun a -> not (P.mem a (Ch.policy h))) pool with
            | [] -> (h, scratch)
            | absent -> (Ch.add (nth absent) h, false)
          else
            match P.authorizations (Ch.policy h) with
            | [] -> (h, scratch)
            | present -> (Ch.revoke (nth present) h, scratch)
        in
        Option.iter
          (QCheck.Test.fail_reportf "seed %d: %s" seed)
          (Helpers.maintained_state_error h);
        emit_all ~revoked:(not grant) h ~scratch;
        (h, scratch)
      in
      let h = Ch.closed_policy ~joins base in
      emit_all h ~scratch:true;
      ignore (List.fold_left step (h, true) ops);
      true)

(* ------------------------------------------------------------------ *)
(* Certificates name their join order.                                 *)

(* A medical query the federation serves in another order than its
   SQL's: the selection on Hospital ranks Nat_registry, Hospital,
   Insurance first. *)
let reordered_sql =
  "SELECT Patient, Plan, HealthAid FROM Insurance JOIN Nat_registry ON \
   Holder = Citizen JOIN Hospital ON Citizen = Patient WHERE Patient = 'x'"

let served_reordered () =
  let fed =
    Federation.create ~catalog:M.catalog ~policy:M.policy
      ~instances:M.instances ()
  in
  match Federation.query fed reordered_sql with
  | Error e -> Alcotest.failf "%a" Federation.pp_error e
  | Ok r -> (
    match r.certificate with
    | Some cert -> (Sql_parser.parse_exn M.catalog reordered_sql, r.plan, cert)
    | None -> Alcotest.fail "no certificate")

let order_mismatch fs =
  List.exists (function C.Order_mismatch _ -> true | _ -> false) fs

(* The flows [assignment] performs on [plan], as a sorted list. *)
let flows_of plan assignment =
  match Planner.Safety.flows M.catalog plan assignment with
  | Error _ -> None
  | Ok fs ->
    Some
      (List.sort compare
         (List.map
            (fun (f : Planner.Safety.flow) ->
              (f.at, Server.name f.sender, Server.name f.receiver,
               Fmt.str "%a" Authz.Profile.pp f.profile))
            fs))

let test_certificate_names_its_order () =
  let q, plan, cert = served_reordered () in
  check Alcotest.(option (list string)) "the served order"
    (Some [ "Nat_registry"; "Hospital"; "Insurance" ])
    cert.C.order;
  check Alcotest.bool "not the SQL order" true
    (cert.C.order <> Some (Query.relations q));
  no_failures "checks against its plan" (check_medical plan cert);
  no_failures "and against the plan rebuilt from the SQL in its order"
    (check_medical
       (Query.to_plan
          (Planner.Optimizer.reorder q (Option.get cert.C.order)))
       cert);
  match C.plan_of_json (C.plan_to_json cert) with
  | Error msg -> Alcotest.failf "round trip: %s" msg
  | Ok back ->
    check Alcotest.(option (list string)) "JSON keeps the order" cert.C.order
      back.C.order

(* Each mutant fails with a typed failure, or checks clean only when
   the plan it is checked against performs exactly the certified
   flows. *)
let test_order_mutants () =
  let q, plan, cert = served_reordered () in
  let served = Option.get cert.C.order in
  (* Swapped for another valid order. *)
  List.iter
    (fun order ->
      if order <> served then begin
        let forged = { cert with C.order = Some order } in
        check Alcotest.bool "swapped: refused against the served plan" true
          (order_mismatch (check_medical plan forged));
        let rebuilt = Query.to_plan (Planner.Optimizer.reorder q order) in
        (match check_medical rebuilt forged with
         | _ :: _ -> ()
         | [] ->
           check Alcotest.bool "swapped: clean only on identical flows" true
             (flows_of rebuilt cert.C.assignment = flows_of plan cert.C.assignment))
      end)
    (Planner.Optimizer.valid_orders q);
  (* Not a permutation of the FROM clause. *)
  List.iter
    (fun order ->
      let forged = { cert with C.order = Some order } in
      check Alcotest.bool "non-permutation refused" true
        (order_mismatch (check_medical plan forged));
      match Planner.Optimizer.reorder q order with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a non-permutation rebuilt a plan")
    [
      [ "Hospital"; "Hospital"; "Insurance" ];
      [ "Hospital"; "Insurance" ];
      [ "Nat_registry"; "Hospital"; "Insurance"; "Insurance" ];
      [ "Nat_registry"; "Hospital"; "Disease_list" ];
    ];
  (* Dropped: read as the SQL order, whose plan is another. *)
  let dropped = { cert with C.order = None } in
  let sql_plan = Query.to_plan q in
  (match check_medical sql_plan dropped with
   | _ :: _ -> ()
   | [] ->
     check Alcotest.bool "dropped: clean only on identical flows" true
       (flows_of sql_plan cert.C.assignment = flows_of plan cert.C.assignment));
  (* Checked against a plan of another order. *)
  check Alcotest.bool "another order's plan refused" true
    (order_mismatch (check_medical sql_plan cert));
  check Alcotest.(list string) "the failure is a CISQP050 on the whole plan"
    [ "CISQP050" ]
    (List.sort_uniq compare
       (List.map
          (fun (d : D.t) -> d.code)
          (C.to_diagnostics
             (List.filter
                (function C.Order_mismatch _ -> true | _ -> false)
                (check_medical sql_plan cert)))))

(* Written before certificates named their order: no "order" field,
   read as the SQL order, and still checks. *)
let parent_format_json =
  {|{"kind":"cisqp-plan-certificate","version":1,"epoch":"5516ea73cd0b5896a0a5a49960f2cbc5","third_party":false,"assignment":[{"node":0,"master":"S_H"},{"node":1,"master":"S_H","slave":"S_N"},{"node":2,"master":"S_N"},{"node":3,"master":"S_H"},{"node":4,"master":"S_I"},{"node":5,"master":"S_N"},{"node":6,"master":"S_H"}],"rules":[{"auth":{"server":"S_H","attrs":["Nat_registry.Citizen","Hospital.Disease","Nat_registry.HealthAid","Insurance.Holder","Hospital.Patient","Hospital.Physician","Insurance.Plan"],"path":[{"left":["Nat_registry.Citizen"],"right":["Insurance.Holder"]},{"left":["Hospital.Patient"],"right":["Nat_registry.Citizen"]}]}},{"auth":{"server":"S_N","attrs":["Hospital.Disease","Hospital.Patient"],"path":[]}},{"auth":{"server":"S_N","attrs":["Insurance.Holder","Insurance.Plan"],"path":[]}}],"flows":[{"at":2,"sender":"S_I","receiver":"S_N","profile":{"pi":["Insurance.Holder","Insurance.Plan"],"join":[],"sigma":[]},"witness":2},{"at":1,"sender":"S_H","receiver":"S_N","profile":{"pi":["Hospital.Patient"],"join":[],"sigma":[]},"witness":1},{"at":1,"sender":"S_N","receiver":"S_H","profile":{"pi":["Nat_registry.Citizen","Nat_registry.HealthAid","Insurance.Holder","Hospital.Patient","Insurance.Plan"],"join":[{"left":["Insurance.Holder"],"right":["Nat_registry.Citizen"]},{"left":["Nat_registry.Citizen"],"right":["Hospital.Patient"]}],"sigma":[]},"witness":0}]}|}

let test_parent_format_checks () =
  match C.plan_of_json parent_format_json with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok cert ->
    check Alcotest.(option (list string)) "no order" None cert.C.order;
    no_failures "checks against the SQL order's plan"
      (check_medical (M.example_plan ()) cert)

let suite =
  [
    c "chase trace replays" `Quick test_chase_trace_checks;
    c "forged premises rejected" `Quick test_forged_premise;
    c "forged composition rejected" `Quick test_forged_composition_step;
    c "ungranted rule rejected" `Quick test_not_granted;
    c "plan certificate checks" `Quick test_plan_cert_checks;
    c "chase-derived witnesses replay" `Quick test_plan_cert_under_chase;
    c "JSON round-trip" `Quick test_json_round_trip;
    c "forged witnesses rejected" `Quick test_forged_witness;
    c "dropped/fabricated flows rejected" `Quick
      test_dropped_and_fabricated_flows;
    c "stale epoch and revalidation" `Quick test_stale_epoch_and_revalidation;
    c "open policies refused" `Quick test_open_policy_refused;
    c "certify proves open-mode plans" `Quick test_certify_open_mode;
    c "failures map to CISQP050" `Quick test_failures_are_cisqp050;
    c "leak counterexamples check" `Quick test_leak_cert_checks;
    c "forged leak certificates rejected" `Quick test_forged_leak_certs;
    c "delivery numbering mirrors Knowledge" `Quick test_deliveries_numbering;
    c "failover replans carry certificates" `Quick test_recover_certifies;
    c "federation responses carry certificates" `Quick
      test_federation_response_certified;
    c "emission matches the reference on Medical" `Quick
      test_emission_differential_medical;
    c "emission after a grant cites the new derivation" `Quick
      test_emission_after_grant;
    Helpers.qcheck prop_emission_under_churn;
    c "a certificate names its join order" `Quick
      test_certificate_names_its_order;
    c "order mutants are refused" `Quick test_order_mutants;
    c "a certificate without an order checks" `Quick test_parent_format_checks;
  ]
