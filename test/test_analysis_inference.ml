(* Cumulative-knowledge inference: unit coverage on the medical
   scenario, property tests of the saturation engine (idempotence,
   monotonicity, budget), and the static-vs-runtime differential sweep:
   replaying [Planner.Safety.flows] (static) and the engine's message
   log (runtime) must build identical knowledge bases and identical
   composition leaks on every random workload. *)

open Relalg
module K = Analysis.Knowledge
module D = Analysis.Diagnostic
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

(* The planner's safe execution of Example 2.2: plan, assignment and
   the flows it entails. *)
let medical_flows () =
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  match Planner.Safety.flows M.catalog plan assignment with
  | Ok flows -> (plan, assignment, flows)
  | Error e -> Alcotest.failf "%a" Planner.Safety.pp_error e

let medical_knowledge () =
  let _, _, flows = medical_flows () in
  K.of_flow_batches M.catalog [ flows ]

(* Figure 3's policy is not closed under the chase, and the safe
   execution of Example 2.2 proves it: joining the deliveries it
   received lets S_N assemble Insurance ⋈ Hospital's join attributes —
   an association no rule grants it. *)
let test_medical_leak () =
  let k = medical_knowledge () in
  let { K.knowledge; exhausted } = K.saturate ~joins:M.join_graph k in
  check Alcotest.(list string) "no budget exhaustion" []
    (List.map Server.to_string exhausted);
  let leaks = K.leaks M.policy knowledge in
  check Alcotest.bool "at least one leak" true (leaks <> []);
  List.iter
    (fun { K.item; _ } ->
      check Alcotest.bool "leak cites a message" true (item.K.sources <> []);
      check Alcotest.bool "leak cites a witness join" true (item.K.via <> []))
    leaks;
  check Alcotest.bool "S_N among the leaking servers" true
    (List.exists (fun { K.server; _ } -> Server.equal server M.s_n) leaks);
  (* The lint wrapper turns each leak into a CISQP030 warning at the
     server's location, and nothing else. *)
  let diags = K.lint ~joins:M.join_graph M.policy k in
  check Alcotest.int "one diagnostic per leak" (List.length leaks)
    (List.length diags);
  List.iter
    (fun (d : D.t) ->
      check Alcotest.string "code" "CISQP030" d.D.code;
      check Alcotest.bool "warning severity" true (d.D.severity = D.Warning))
    diags

(* The converse of the leak test: saturation of authorized deliveries
   can only escape a policy that is not chase-closed, so closing the
   policy first silences the pass. *)
let test_chase_closed_policy_is_leak_free () =
  let closed = Authz.Chase.close ~joins:M.join_graph M.policy in
  let k = medical_knowledge () in
  let { K.knowledge; _ } = K.saturate ~joins:M.join_graph k in
  check Alcotest.int "no leaks under the closed policy" 0
    (List.length (K.leaks closed knowledge))

let test_budget_exhaustion () =
  let k = medical_knowledge () in
  let { K.exhausted; _ } = K.saturate ~budget:4 ~joins:M.join_graph k in
  check Alcotest.bool "tiny budget exhausts" true (exhausted <> []);
  let diags = K.lint ~budget:4 ~joins:M.join_graph M.policy k in
  check Alcotest.bool "CISQP031 emitted" true
    (List.exists (fun (d : D.t) -> d.D.code = "CISQP031") diags);
  let { K.exhausted; _ } = K.saturate ~budget:1024 ~joins:M.join_graph k in
  check Alcotest.(list string) "ample budget does not" []
    (List.map Server.to_string exhausted)

let test_idempotence () =
  let k = medical_knowledge () in
  let once = (K.saturate ~joins:M.join_graph k).K.knowledge in
  let twice = (K.saturate ~joins:M.join_graph once).K.knowledge in
  check Alcotest.bool "saturate is a fixpoint" true (Oracle.equal once twice)

let test_monotonicity_medical () =
  let _, _, flows = medical_flows () in
  let n = List.length flows in
  for prefix_len = 0 to n do
    let prefix = List.filteri (fun i _ -> i < prefix_len) flows in
    let smaller = K.of_flow_batches M.catalog [ prefix ] in
    let larger = K.of_flow_batches M.catalog [ flows ] in
    check Alcotest.bool "accumulation is monotone" true
      (Oracle.subset smaller larger);
    (* Coverage, not exact inclusion: subsumption pruning may retain,
       for the larger log, a dominating entry in place of the exact
       profile the smaller log derives. *)
    let s = (K.saturate ~joins:M.join_graph smaller).K.knowledge in
    let l = (K.saturate ~joins:M.join_graph larger).K.knowledge in
    check Alcotest.bool "saturation preserves monotonicity" true
      (Oracle.covered_by s l)
  done

(* ------------------------------------------------------------------ *)
(* Static vs runtime differential sweep.                               *)

(* Witness facts of a leak, note text excluded: the engine's human
   notes differ from [Safety.pp_payload]'s, and only provenance
   structure must agree. *)
let leak_facts leaks =
  List.map
    (fun { K.server; item } ->
      ( Server.to_string server,
        Authz.Profile.to_string item.K.profile,
        List.map (fun (s : K.source) -> (s.K.seq, Server.to_string s.sender))
          item.K.sources,
        List.map Joinpath.Cond.to_string item.K.via ))
    leaks

(* Distinct (code, location) verdicts: how many same-code diagnostics
   a server accumulates depends on which leak witnesses each engine
   retains (the incremental audit cursor and the batch engine explore
   in different orders), but WHETHER a server gets a CISQP030/031 is
   order-independent. *)
let diag_facts diags =
  List.sort_uniq compare
    (List.map
       (fun (d : D.t) -> (d.D.code, Fmt.str "%a" D.pp_location d.D.location))
       diags)

let densities = [| 0.5; 0.75; 1.0 |]

let topologies =
  [|
    Workload.System_gen.Chain;
    Workload.System_gen.Star;
    Workload.System_gen.Random { extra_edges = 1 };
  |]

let test_differential () =
  let compared = ref 0 and with_leaks = ref 0 and clean = ref 0 in
  let seed = ref 0 in
  while !compared < 220 && !seed < 2000 do
    incr seed;
    let seed = !seed in
    let rng = Workload.Rng.make ~seed in
    let relations = 3 + (seed mod 3) in
    let sys =
      Workload.System_gen.generate rng ~relations ~servers:relations ~extra:2
        ~replication:(if seed mod 4 = 0 then 0.3 else 0.0)
        ~topology:topologies.(seed mod 3)
    in
    let policy =
      Workload.Authz_gen.generate rng ~density:densities.(seed mod 3) sys
    in
    match
      Workload.Query_gen.generate_plan rng ~joins:(1 + (seed mod 3)) sys
    with
    | None -> ()
    | Some plan -> (
      match Planner.Safe_planner.plan sys.catalog policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } -> (
        let flows =
          match Planner.Safety.flows sys.catalog plan assignment with
          | Ok flows -> flows
          | Error e ->
            Alcotest.failf "planner output has no flows: %a"
              Planner.Safety.pp_error e
        in
        let instances =
          Workload.Data_gen.instances (Workload.Rng.make ~seed:(seed * 7))
            ~rows:12 ~domain_scale:1.5 sys
        in
        match Distsim.Engine.execute sys.catalog ~instances plan assignment with
        | Error e -> Alcotest.failf "engine failed: %a" Distsim.Engine.pp_error e
        | Ok { network; _ } ->
          incr compared;
          let joins = sys.join_graph in
          let static = K.of_flow_batches sys.catalog [ flows ] in
          let runtime = Oracle.runtime_knowledge sys.catalog network in
          if not (Oracle.equal static runtime) then
            Alcotest.failf
              "accumulated knowledge disagrees (seed %d):@.static:@.%a@.runtime:@.%a"
              seed K.pp static K.pp runtime;
          let s_sat = (K.saturate ~joins static).K.knowledge in
          let r_sat = (K.saturate ~joins runtime).K.knowledge in
          if not (Oracle.equal s_sat r_sat) then
            Alcotest.failf "saturated knowledge disagrees (seed %d)" seed;
          let s_leaks = leak_facts (K.leaks policy s_sat) in
          let r_leaks = leak_facts (K.leaks policy r_sat) in
          if s_leaks <> r_leaks then
            Alcotest.failf "leak sets disagree (seed %d)" seed;
          let s_diags = diag_facts (K.lint ~joins policy static) in
          let r_diags =
            diag_facts (Oracle.runtime_inference ~joins sys.catalog policy network)
          in
          if s_diags <> r_diags then
            Alcotest.failf "diagnostics disagree (seed %d)" seed;
          if s_leaks <> [] then incr with_leaks else incr clean))
  done;
  check Alcotest.bool
    (Printf.sprintf "at least 200 workloads compared (got %d)" !compared)
    true (!compared >= 200);
  (* The sweep proves nothing unless both outcomes occur. *)
  check Alcotest.bool
    (Printf.sprintf "both outcomes seen (%d leaking, %d clean)" !with_leaks
       !clean)
    true
    (!with_leaks > 10 && !clean > 10)

(* Random-workload monotonicity: replaying any prefix of the message
   log yields a subset of the full log's saturated knowledge. *)
let test_monotonicity_random () =
  let exercised = ref 0 in
  for seed = 1 to 60 do
    let rng = Workload.Rng.make ~seed:(1000 + seed) in
    let sys =
      Workload.System_gen.generate rng ~relations:4 ~servers:4 ~extra:2
        ~topology:topologies.(seed mod 3)
    in
    let policy = Workload.Authz_gen.generate rng ~density:1.0 sys in
    match Workload.Query_gen.generate_plan rng ~joins:2 sys with
    | None -> ()
    | Some plan -> (
      match Planner.Safe_planner.plan sys.catalog policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } -> (
        match Planner.Safety.flows sys.catalog plan assignment with
        | Error _ -> ()
        | Ok flows ->
          incr exercised;
          let full =
            (K.saturate ~joins:sys.join_graph
               (K.of_flow_batches sys.catalog [ flows ]))
              .K.knowledge
          in
          List.iteri
            (fun i _ ->
              let prefix = List.filteri (fun j _ -> j <= i) flows in
              let partial =
                (K.saturate ~joins:sys.join_graph
                   (K.of_flow_batches sys.catalog [ prefix ]))
                  .K.knowledge
              in
              check Alcotest.bool "prefix knowledge is covered" true
                (Oracle.covered_by partial full))
            flows))
  done;
  check Alcotest.bool
    (Printf.sprintf "monotonicity exercised (%d workloads)" !exercised)
    true (!exercised > 20)

let suite =
  [
    c "medical composition leak" `Quick test_medical_leak;
    c "chase-closed policy is leak-free" `Quick
      test_chase_closed_policy_is_leak_free;
    c "budget exhaustion" `Quick test_budget_exhaustion;
    c "fixpoint idempotence" `Quick test_idempotence;
    c "monotonicity (medical prefixes)" `Quick test_monotonicity_medical;
    c "monotonicity (random workloads)" `Slow test_monotonicity_random;
    c "static-vs-runtime differential" `Slow test_differential;
  ]
