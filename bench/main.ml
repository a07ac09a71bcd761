(* bench/main.exe — the reproduction's jobs, run through one harness
   (bench/harness).

   With no argument it runs them all: the figures of the paper (the
   paper has no measured tables; Figures 1-7 ARE its artifacts — see
   DESIGN.md), the synthetic experiment tables (Tables), every
   BENCH_*.json bench and the Bechamel micro-benchmarks. Naming benches
   (inference, chase, certify, faults, service, health, exec) runs just
   those. A failed check is printed and counted, the run carries on,
   and the exit status is 1.

   Run: dune exec bench/main.exe            (everything)
        dune exec bench/main.exe -- quick   (no micro, 40-seed tables)
        dune exec bench/main.exe -- chase   (one bench: BENCH_chase.json) *)

open Bechamel
open Toolkit
open Relalg
open Workload

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks.                                                   *)

let medical_plan = lazy (Scenario.Medical.example_plan ())

(* One planning problem per chain length, shared by setup. *)
let chain_case joins =
  let relations = joins + 1 in
  let rng = Rng.make ~seed:123 in
  let sys =
    System_gen.generate rng ~relations ~servers:4 ~extra:2
      ~topology:System_gen.Chain
  in
  let policy =
    Authz_gen.generate (Rng.make ~seed:9) ~max_path:joins ~attr_keep:1.0
      ~density:1.0 sys
  in
  let plan =
    match Query_gen.generate_plan (Rng.make ~seed:3) ~joins sys with
    | Some p -> p
    | None -> assert false
  in
  (sys, policy, plan)

let bench_planner_chain joins =
  let sys, policy, plan = chain_case joins in
  Test.make
    ~name:(Printf.sprintf "planner/chain-%d" joins)
    (Staged.stage (fun () ->
         ignore (Planner.Safe_planner.plan sys.System_gen.catalog policy plan)))

let bench_planner_medical =
  Test.make ~name:"planner/medical (Fig 7)"
    (Staged.stage (fun () ->
         ignore
           (Planner.Safe_planner.plan Scenario.Medical.catalog
              Scenario.Medical.policy (Lazy.force medical_plan))))

let bench_can_view =
  let profile =
    Authz.Profile.make
      ~pi:
        (Attribute.Set.of_list
           (List.map Scenario.Medical.attr [ "Holder"; "Plan" ]))
      ~join:Joinpath.empty ~sigma:Attribute.Set.empty
  in
  Test.make ~name:"authz/can_view"
    (Staged.stage (fun () ->
         ignore
           (Authz.Policy.can_view Scenario.Medical.policy profile
              Scenario.Medical.s_n)))

let bench_chase =
  Test.make ~name:"authz/chase-medical"
    (Staged.stage (fun () ->
         ignore
           (Authz.Chase.close ~joins:Scenario.Medical.join_graph
              Scenario.Medical.policy)))

let bench_parse =
  Test.make ~name:"sql/parse-example-2.2"
    (Staged.stage (fun () ->
         ignore
           (Sql_parser.parse Scenario.Medical.catalog
              Scenario.Medical.example_query_sql)))

let bench_engine_medical =
  let assignment =
    lazy
      (match
         Planner.Safe_planner.plan Scenario.Medical.catalog
           Scenario.Medical.policy (Lazy.force medical_plan)
       with
       | Ok r -> r.Planner.Safe_planner.assignment
       | Error _ -> assert false)
  in
  Test.make ~name:"engine/medical-execution"
    (Staged.stage (fun () ->
         ignore
           (Distsim.Engine.execute Scenario.Medical.catalog
              ~instances:Scenario.Medical.instances (Lazy.force medical_plan)
              (Lazy.force assignment))))

let bench_exhaustive_medical =
  Test.make ~name:"planner/exhaustive-medical"
    (Staged.stage (fun () ->
         ignore
           (Planner.Exhaustive.count_safe Scenario.Medical.catalog
              Scenario.Medical.policy (Lazy.force medical_plan))))

let bench_audit =
  let network =
    lazy
      (match
         Planner.Safe_planner.plan Scenario.Medical.catalog
           Scenario.Medical.policy (Lazy.force medical_plan)
       with
       | Error _ -> assert false
       | Ok { assignment; _ } ->
         (match
            Distsim.Engine.execute Scenario.Medical.catalog
              ~instances:Scenario.Medical.instances (Lazy.force medical_plan)
              assignment
          with
          | Ok { network; _ } -> network
          | Error _ -> assert false))
  in
  Test.make ~name:"audit/medical-run"
    (Staged.stage (fun () ->
         ignore
           (Distsim.Audit.run Scenario.Medical.policy (Lazy.force network))))

let bench_engine_scale =
  (* Engine throughput at 1000 rows per relation (single semi-join). *)
  let fixture =
    lazy
      (let rng = Workload.Rng.make ~seed:77 in
       let sys =
         Workload.System_gen.generate rng ~relations:2 ~servers:2 ~extra:2
           ~topology:Workload.System_gen.Chain
       in
       let plan =
         Option.get
           (Workload.Query_gen.generate_plan (Workload.Rng.make ~seed:1)
              ~joins:1 sys)
       in
       let policy =
         Workload.Authz_gen.generate (Workload.Rng.make ~seed:9)
           ~attr_keep:1.0 ~density:1.0 sys
       in
       let assignment =
         match Planner.Safe_planner.plan sys.catalog policy plan with
         | Ok r -> r.Planner.Safe_planner.assignment
         | Error _ -> assert false
       in
       let instances =
         Workload.Data_gen.instances (Workload.Rng.make ~seed:5) ~rows:1000
           ~domain_scale:2.0 sys
       in
       (sys, plan, assignment, instances))
  in
  Test.make ~name:"engine/single-join-1000-rows"
    (Staged.stage (fun () ->
         let sys, plan, assignment, instances = Lazy.force fixture in
         ignore
           (Distsim.Engine.execute sys.Workload.System_gen.catalog ~instances
              plan assignment)))

let bench_optimizer_medical =
  let query = lazy (Scenario.Medical.example_query ()) in
  let model = Planner.Cost.uniform ~card:1000.0 in
  Test.make ~name:"optimizer/medical-4-orders"
    (Staged.stage (fun () ->
         ignore
           (Planner.Optimizer.optimize model Scenario.Medical.catalog
              Scenario.Medical.policy (Lazy.force query))))

let bench_advisor_pricing =
  let plan = lazy (Scenario.Supply_chain.pricing_plan ()) in
  Test.make ~name:"advisor/pricing-repair"
    (Staged.stage (fun () ->
         ignore
           (Planner.Advisor.advise Scenario.Supply_chain.catalog
              Scenario.Supply_chain.policy (Lazy.force plan))))

let bench_coordinator_research =
  let plan = lazy (Scenario.Research.outcomes_plan ()) in
  Test.make ~name:"planner/coordinator-rescue"
    (Staged.stage (fun () ->
         ignore
           (Planner.Third_party.plan ~helpers:[ Scenario.Research.s_t ]
              Scenario.Research.catalog Scenario.Research.policy
              (Lazy.force plan))))

let all_micro =
  Test.make_grouped ~name:"cisqp"
    [
      bench_planner_medical;
      bench_planner_chain 2;
      bench_planner_chain 4;
      bench_planner_chain 8;
      bench_planner_chain 16;
      bench_planner_chain 32;
      bench_can_view;
      bench_chase;
      bench_parse;
      bench_engine_medical;
      bench_exhaustive_medical;
      bench_audit;
      bench_engine_scale;
      bench_optimizer_medical;
      bench_advisor_pricing;
      bench_coordinator_research;
    ]

let run_micro () =
  Fmt.pr "@.%s@.Micro-benchmarks (Bechamel, ns per run)@.%s@."
    (String.make 72 '-') (String.make 72 '-');
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] all_micro in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "%-40s %16s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if ns > 1e6 then Printf.sprintf "%10.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%10.2f us" (ns /. 1e3)
        else Printf.sprintf "%10.0f ns" ns
      in
      Fmt.pr "%-40s %16s@." name human)
    rows

(* ------------------------------------------------------------------ *)
(* Shared generators.                                                  *)

(* The chain system with a max-path-2 policy of the chase and certify
   benches: one server per relation and subtree grants up to 2 edges,
   so closures derive the longer paths round by round — exactly where
   rescanning every pair hurts. *)
let chase_case relations density =
  let rng = Rng.make ~seed:(41 * relations) in
  let sys =
    System_gen.generate rng ~relations ~servers:relations ~extra:2
      ~topology:System_gen.Chain
  in
  ( sys,
    Authz_gen.generate
      (Rng.make ~seed:(relations + 1))
      ~max_path:2 ~attr_keep:1.0 ~density sys )

let chase_points = [ (6, 0.5); (9, 0.4); (12, 0.35); (15, 0.3) ]

(* The flow log of the inference and certify saturation benches: one
   generated federation, one batch of flows per safely planned 3-join
   query, up to 24 batches. *)
let flow_log () =
  let sys =
    System_gen.generate (Rng.make ~seed:11) ~relations:6 ~servers:6 ~extra:3
      ~topology:System_gen.Chain
  in
  let catalog = sys.System_gen.catalog in
  let policy =
    Authz_gen.generate (Rng.make ~seed:4) ~attr_keep:1.0 ~density:1.0 sys
  in
  let batches =
    List.init 24 (fun i ->
        Option.bind
          (Query_gen.generate_plan (Rng.make ~seed:(100 + i)) ~joins:3 sys)
          (fun plan ->
            match Planner.Safe_planner.plan catalog policy plan with
            | Error _ -> None
            | Ok { assignment; _ } -> (
              match Planner.Safety.flows catalog plan assignment with
              | Ok flows -> Some flows
              | Error _ -> None)))
    |> List.filter_map Fun.id
  in
  (sys, policy, batches)

(* The distinct SQL texts of [n] WHERE-less [joins]-join queries, drawn
   from seeds [seed], [seed + 1], ... *)
let sql_pool sys ~seed ~joins n =
  List.filter_map
    (fun i ->
      Option.map Query.to_string
        (Query_gen.generate
           (Rng.make ~seed:(seed + i))
           ~where_prob:0.0 ~joins sys))
    (List.init n Fun.id)
  |> List.sort_uniq String.compare

(* Whether response [r] of federation [svc] fails to re-prove against
   the base policy as it stands now: in closed mode a response must
   carry a certificate, and it must check in revalidate mode. *)
let unproven ~joins catalog svc (r : Federation.response) =
  match r.Federation.certificate with
  | None -> true
  | Some cert ->
    Analysis.Certificate.check_plan ~revalidate:true ~joins catalog
      (Federation.base_policy svc) r.Federation.plan cert
    <> []

(* ------------------------------------------------------------------ *)
(* Inference-pass perf trajectory: saturation time vs message-log size,
   written to BENCH_inference.json so successive PRs can compare runs.
   After each query of the flow log the accumulated log is saturated
   afresh. *)

let run_inference_bench () =
  let module K = Analysis.Knowledge in
  let sys, policy, batches = flow_log () in
  let catalog = sys.System_gen.catalog in
  let joins = sys.System_gen.join_graph in
  let count (o : K.outcome) =
    List.fold_left
      (fun acc s -> acc + List.length (K.items o.K.knowledge s))
      0
      (K.servers o.K.knowledge)
  in
  (* Distinct leak-verdict servers — engine-independent, unlike the
     witness items and the exact (pruned vs unpruned) profile sets. *)
  let leak_servers (o : K.outcome) =
    List.sort_uniq compare
      (List.map
         (fun (l : K.leak) -> Server.to_string l.K.server)
         (K.leaks policy o.K.knowledge))
  in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  let point prefix =
    let knowledge = K.of_flow_batches catalog prefix in
    let messages = List.length (List.concat prefix) in
    (* Indexed engine, best of 3. Its join/subset memos are
       process-global by design, so runs 2-3 (and later points over
       the grown log) reuse earlier work — exactly how the lint and
       audit paths hit it. *)
    let fast, seconds =
      Harness.best_of (fun () -> K.saturate ~joins knowledge)
    in
    (* The oracle ([Oracle.saturate]), once — it pays its full
       quadratic cost every run, and the bench doubles as a verdict
       differential. *)
    let slow, naive_seconds =
      Harness.time (fun () -> Oracle.saturate ~joins knowledge)
    in
    (* The differential: identical CISQP030 verdicts at every point,
       and pruning can only DELAY budget exhaustion — the indexed
       engine's exhausted servers are a subset of the naive
       engine's (it holds fewer profiles for the same coverage, the
       whole point of subsumption). *)
    Harness.check
      (leak_servers fast = leak_servers slow)
      "inference bench: leak verdicts differ at %d messages" messages;
    Harness.check
      (subset fast.K.exhausted slow.K.exhausted)
      "inference bench: indexed engine exhausted where naive did not at %d \
       messages"
      messages;
    Printf.sprintf
      {|{"messages":%d,"profiles":%d,"seconds":%.9f,"exhausted":%d,"naive_profiles":%d,"naive_seconds":%.9f,"naive_exhausted":%d,"speedup":%.2f}|}
      messages (count fast) seconds
      (List.length fast.K.exhausted)
      (count slow) naive_seconds
      (List.length slow.K.exhausted)
      (naive_seconds /. seconds)
  in
  Harness.write_json "BENCH_inference.json" ~bench:"inference-saturation"
    ~header:[ ("budget", K.default_budget) ]
    (List.mapi
       (fun i _ -> point (List.filteri (fun j _ -> j <= i) batches))
       batches)

(* ------------------------------------------------------------------ *)
(* Chase-closure perf trajectory: semi-naive indexed evaluation vs the
   all-pairs oracle ([Oracle.close_chase]) on the chase points. Written to
   BENCH_chase.json so successive PRs can compare. Each point also
   asserts the two closures are identical — the bench doubles as a
   differential.

   Each point also revokes up to 12 evenly spaced path rules from a
   forced handle and times each revoke (closure forced) against
   [Chase.close] of the shrunk base, asserting the two closures are
   equal. A revoke re-closes only the revoked rule's server, so the
   point fails when the median revoke takes more than half a
   from-scratch close. Times are best of 3. *)

let run_chase_bench () =
  let measure f = snd (Harness.best_of f) in
  let point (relations, density) =
    let sys, policy = chase_case relations density in
    let joins = sys.System_gen.join_graph in
    let fast = Authz.Chase.close ~joins policy in
    let slow = Oracle.close_chase ~joins policy in
    Harness.check
      (Authz.Policy.equal fast slow)
      "chase bench: closures differ at %d relations" relations;
    let seminaive = measure (fun () -> Authz.Chase.close ~joins policy) in
    let naive = measure (fun () -> Oracle.close_chase ~joins policy) in
    let closed = Authz.Chase.closed_policy ~joins policy in
    ignore (Authz.Chase.closure closed);
    let path_rules =
      List.filter
        (fun (a : Authz.Authorization.t) -> not (Joinpath.is_empty a.path))
        (Authz.Policy.authorizations policy)
    in
    let n = List.length path_rules in
    let k = min 12 n in
    let revoked = List.init k (fun i -> List.nth path_rules (i * n / k)) in
    let ratios =
      List.map
        (fun rule ->
          let shrunk = Authz.Policy.remove rule policy in
          Harness.check
            (Authz.Policy.equal
               (Authz.Chase.closure (Authz.Chase.revoke rule closed))
               (Authz.Chase.close ~joins shrunk))
            "chase bench: revoke differs from scratch at %d relations"
            relations;
          measure (fun () ->
              Authz.Chase.closure (Authz.Chase.revoke rule closed))
          /. measure (fun () -> Authz.Chase.close ~joins shrunk))
        revoked
    in
    let ratio_median = Harness.median ratios in
    Harness.check
      (not (ratio_median > 0.5))
      "chase bench: median revoke/close ratio %.3f > 0.5 at %d relations"
      ratio_median relations;
    Printf.sprintf
      {|{"relations":%d,"servers":%d,"joins":%d,"density":%.2f,"base_rules":%d,"closed_rules":%d,"seminaive_seconds":%.9f,"naive_seconds":%.9f,"speedup":%.2f,"revokes":%d,"revoke_ratio_median":%.3f,"revoke_ratio_max":%.3f}|}
      relations relations (List.length joins) density
      (Authz.Policy.cardinality policy)
      (Authz.Policy.cardinality fast)
      seminaive naive
      (naive /. seminaive)
      k ratio_median
      (List.fold_left Float.max 0. ratios)
  in
  Harness.write_json "BENCH_chase.json" ~bench:"chase-closure"
    (List.map point chase_points)

(* ------------------------------------------------------------------ *)
(* Certificate-checker overhead: the independent linear-time checker
   must be strictly cheaper than the engine whose verdict it validates,
   at every measured point — otherwise proof-carrying mode would double
   the cost it is meant to bound. Three families of points pit an
   engine against its checker: chase closure vs derivation-trace
   replay, planning + safety re-proof vs plan-certificate check, and
   log saturation vs join-tree counterexample checks; each asserts
   checker < engine and that every certificate checks. A fourth family
   times certificate emission against a warm chase handle vs checking
   the emitted certificate, and asserts the median emit takes at most
   3x its check. Written to BENCH_certify.json. *)

let run_certify_bench () =
  let module C = Analysis.Certificate in
  let measure f = snd (Harness.best_of f) in
  let below what engine checker =
    Harness.check (checker < engine)
      "certify bench: checker not below engine at %s (%.9f >= %.9f)" what
      checker engine
  in
  (* Chase points: closing the policy vs replaying its recorded
     derivation trace. *)
  let chase_point (relations, density) =
    let sys, policy = chase_case relations density in
    let joins = sys.System_gen.join_graph in
    let _, trace = Authz.Chase.close_trace ~joins policy in
    let rules = C.rules_of_trace policy trace in
    Harness.check
      (C.check_rules ~joins policy rules = [])
      "certify bench: chase trace rejected at %d relations" relations;
    let engine = measure (fun () -> Authz.Chase.close_trace ~joins policy) in
    let checker = measure (fun () -> C.check_rules ~joins policy rules) in
    below (Printf.sprintf "chase-%d" relations) engine checker;
    Printf.sprintf
      {|{"kind":"chase","relations":%d,"rules":%d,"engine_seconds":%.9f,"checker_seconds":%.9f,"ratio":%.2f}|}
      relations (List.length rules) engine checker (engine /. checker)
  in
  (* Emit points (the chase points' policies): emitting a certificate
     against the warm handle vs checking it, per call. Emission walks
     back from the flow witnesses through the handle's derivation
     table, so like the check it costs time in proportion to the
     certificate, not the closure: a point fails when the median
     plan's emit takes more than 3x its check. *)
  let emit_point (relations, density) =
    let sys, policy = chase_case relations density in
    let catalog = sys.System_gen.catalog in
    let joins = sys.System_gen.join_graph in
    let closed = Authz.Chase.closed_policy ~joins policy in
    let closure = Authz.Chase.closure closed in
    let certified =
      List.filter_map
        (fun seed ->
          Option.bind
            (Query_gen.generate_plan (Rng.make ~seed) ~joins:(2 + (seed mod 3))
               sys)
            (fun plan ->
              match Planner.Safe_planner.plan ~closed catalog closure plan with
              | Error _ -> None
              | Ok { assignment; _ } -> (
                match C.certify ~closed catalog closure plan assignment with
                | Ok (Some cert) when cert.C.flows <> [] ->
                  Some (plan, assignment, cert)
                | Ok _ -> None
                | Error msg ->
                  Harness.fail "certify bench: emission failed: %s" msg;
                  None)))
        (List.init 16 Fun.id)
      |> List.filteri (fun i _ -> i < 4)
    in
    Harness.check (certified <> [])
      "certify bench: no certified plan at %d relations" relations;
    let timed =
      List.map
        (fun (plan, assignment, cert) ->
          let emit =
            Harness.per_call (fun () ->
                C.emit_plan ~closed catalog closure plan assignment)
          and check =
            Harness.per_call (fun () ->
                C.check_plan ~joins catalog policy plan cert)
          in
          (* Alternate the two so drift hits both alike. *)
          let samples = List.init 9 (fun _ -> (emit (), check ())) in
          ( Harness.median (List.map fst samples),
            Harness.median (List.map snd samples) ))
        certified
    in
    let ratios = List.map (fun (e, c) -> e /. c) timed in
    let ratio = Harness.median ratios in
    Harness.check
      (not (ratio > 3.0))
      "certify bench: emit takes %.1fx its check at %d relations (gate 3x)"
      ratio relations;
    Printf.sprintf
      {|{"kind":"emit","relations":%d,"rules":%d,"plans":%d,"emit_seconds":%.9f,"checker_seconds":%.9f,"ratio":%.2f,"max_ratio":%.2f}|}
      relations
      (Authz.Policy.cardinality closure)
      (List.length timed)
      (Harness.median (List.map fst timed))
      (Harness.median (List.map snd timed))
      ratio
      (List.fold_left Float.max 0. ratios)
  in
  (* Plan points (the planner chain cases): planning + the independent
     safety re-proof vs checking the emitted certificate. *)
  let plan_point joins_n =
    let sys, policy, plan = chain_case joins_n in
    let catalog = sys.System_gen.catalog in
    let joins = sys.System_gen.join_graph in
    let assignment =
      match Planner.Safe_planner.plan catalog policy plan with
      | Ok r -> r.Planner.Safe_planner.assignment
      | Error _ -> assert false
    in
    match C.emit_plan catalog policy plan assignment with
    | Error msg ->
      Harness.fail "certify bench: emission failed: %s" msg;
      ""
    | Ok cert ->
      Harness.check
        (C.check_plan ~joins catalog policy plan cert = [])
        "certify bench: plan certificate rejected at %d joins" joins_n;
      let engine =
        measure (fun () ->
            match Planner.Safe_planner.plan catalog policy plan with
            | Ok r ->
              Planner.Safety.check catalog policy plan
                r.Planner.Safe_planner.assignment
            | Error _ -> assert false)
      in
      let checker =
        measure (fun () -> C.check_plan ~joins catalog policy plan cert)
      in
      below (Printf.sprintf "plan-chain-%d" joins_n) engine checker;
      Printf.sprintf
        {|{"kind":"plan","joins":%d,"flows":%d,"engine_seconds":%.9f,"checker_seconds":%.9f,"ratio":%.2f}|}
        joins_n (List.length cert.C.flows) engine checker (engine /. checker)
  in
  (* Saturation point (the flow log): saturating the full accumulated
     log vs checking the per-leak join-tree counterexamples
     reconstructed from the saturation's provenance. *)
  let saturation_point () =
    let module K = Analysis.Knowledge in
    let sys, policy, batches = flow_log () in
    let catalog = sys.System_gen.catalog in
    let joins = sys.System_gen.join_graph in
    let accumulated = K.of_flow_batches catalog batches in
    let deliveries = C.deliveries_of_batches batches in
    let cur = K.cursor ~joins accumulated in
    let snap = K.snapshot cur in
    let leaks = K.leaks policy snap.K.knowledge in
    let certs =
      List.filter_map
        (fun (l : K.leak) ->
          let (it : K.item) = l.K.item in
          Option.map
            (fun tree ->
              {
                C.epoch = C.epoch policy;
                server = l.K.server;
                profile = it.K.profile;
                tree;
              })
            (K.explain cur catalog l.K.server it.K.profile))
        leaks
    in
    List.iter
      (fun cert ->
        Harness.check
          (C.check_leak ~joins catalog policy ~deliveries cert = [])
          "certify bench: leak certificate rejected")
      certs;
    let engine = measure (fun () -> K.saturate ~joins accumulated) in
    let checker =
      measure (fun () ->
          List.iter
            (fun cert ->
              ignore (C.check_leak ~joins catalog policy ~deliveries cert))
            certs)
    in
    below "saturation" engine checker;
    Printf.sprintf
      {|{"kind":"saturation","leaks":%d,"certified":%d,"engine_seconds":%.9f,"checker_seconds":%.9f,"ratio":%.2f}|}
      (List.length leaks) (List.length certs) engine checker
      (engine /. checker)
  in
  let chase = List.map chase_point chase_points in
  let emit = List.map emit_point chase_points in
  let plan = List.map plan_point [ 2; 4; 8; 16 ] in
  let saturation = saturation_point () in
  Harness.write_json "BENCH_certify.json" ~bench:"certificate-checker"
    (chase @ emit @ plan @ [ saturation ])

(* ------------------------------------------------------------------ *)
(* Fault-recovery sweep: how often a guaranteed permanent crash of the
   answering server is survived, as a function of the catalog's
   replication factor. Written to BENCH_faults.json; the file holds
   counts only, so [dune build @bench-faults] regenerates it and fails
   when it differs from the committed one. *)

let run_fault_bench () =
  let seeds = 120 in
  let sweep replication =
    let cases = ref 0
    and recovered = ref 0
    and failed_over = ref 0
    and degraded = ref 0
    and attempts = ref 0
    and retries = ref 0 in
    for seed = 1 to seeds do
      let rng = Rng.make ~seed:(700_000 + seed) in
      let relations = 4 + (seed mod 2) in
      let sys =
        System_gen.generate ~replication rng ~relations ~servers:relations
          ~extra:2 ~topology:System_gen.Chain
      in
      let policy = Authz_gen.generate rng ~density:0.8 sys in
      match Query_gen.generate_plan rng ~joins:2 sys with
      | None -> ()
      | Some plan ->
        (match
           Planner.Third_party.plan ~helpers:[] sys.System_gen.catalog policy
             plan
         with
         | Error _ -> ()
         | Ok { assignment; _ } ->
           incr cases;
           (* Kill the server that would deliver the answer, at step 0:
              only a replica (direct or via replan) can save the run. *)
           let victim =
             (Planner.Assignment.find assignment (Plan.root plan).Plan.id)
               .Planner.Assignment.master
           in
           let instances = Data_gen.instances rng ~rows:8 sys in
           let fault =
             Distsim.Fault.make
               ~crashes:[ Distsim.Fault.crash victim ~at:0 ]
               ~seed ()
           in
           (match
              Distsim.Recover.execute sys.System_gen.catalog policy ~instances
                ~fault plan
            with
            | Ok r ->
              incr recovered;
              if r.Distsim.Recover.failovers <> [] then incr failed_over;
              attempts := !attempts + r.Distsim.Recover.attempts;
              retries := !retries + r.Distsim.Recover.retries
            | Error _ -> incr degraded))
    done;
    let mean n = if !cases = 0 then 0.0 else float_of_int n /. float_of_int !cases in
    Printf.sprintf
      {|{"replication":%.1f,"cases":%d,"recovered":%d,"failed_over":%d,"degraded":%d,"mean_attempts":%.3f,"mean_retries":%.3f}|}
      replication !cases !recovered !failed_over !degraded (mean !attempts)
      (mean !retries)
  in
  Harness.write_json "BENCH_faults.json" ~bench:"fault-recovery"
    ~header:[ ("seeds", seeds) ]
    (List.map sweep [ 0.0; 0.3; 0.6; 0.9 ])

(* ------------------------------------------------------------------ *)
(* Service-layer sweep: prepared-plan cache vs plan-per-call on a
   Zipf-distributed repeated-query stream, plus a revoke storm. The
   cached federation parses, canonicalizes and executes; the
   plan-per-call twin (cache_capacity 0) re-plans, re-emits and
   re-checks a certificate for every call — the cost the cache
   amortizes. Written to BENCH_service.json. The gates are counts: at
   every sweep point the cached federation misses only the warm-up
   (one miss per pool query) and the twin hits nothing; the wall-clock
   speedup is recorded, not gated. The storm asserts zero stale
   executions (every served response's certificate re-checks against
   the current base policy). *)

let run_service_bench () =
  let module F = Federation in
  let sweep ~relations ~max_path ~joins_per_query ~pool_size ~draws =
    let rng = Rng.make ~seed:(61 * relations) in
    let sys =
      System_gen.generate rng ~relations ~servers:relations ~extra:2
        ~topology:System_gen.Chain
    in
    let policy =
      Authz_gen.generate
        (Rng.make ~seed:(relations + 3))
        ~max_path ~attr_keep:1.0 ~density:1.0 sys
    in
    let joins = sys.System_gen.join_graph in
    (* Tiny instances: the served path is parse + canonical key +
       execute, so row work must not drown the planning cost the
       cache removes. *)
    let instances = Data_gen.instances rng ~rows:2 sys in
    let mk capacity =
      F.create ~catalog:sys.System_gen.catalog ~policy ~close_under:joins
        ~cache_capacity:capacity
        ~instances:(fun r -> instances r)
        ()
    in
    let cached = mk 256 and per_call = mk 0 in
    let pool =
      sql_pool sys ~seed:(1000 + (relations * 100)) ~joins:joins_per_query
        (2 * pool_size)
      |> List.filteri (fun i _ -> i < pool_size)
    in
    Harness.check (List.length pool >= 2) "service bench: degenerate pool";
    (* Warm-up doubles as the differential: both services must agree. *)
    List.iter
      (fun sql ->
        match (F.query cached sql, F.query per_call sql) with
        | Ok a, Ok b ->
          Harness.check
            (Relation.equal a.F.result b.F.result)
            "service bench: cached/per-call result drift"
        | _ -> Harness.fail "service bench: pool query failed")
      pool;
    let pool_arr = Array.of_list pool in
    let zrng = Rng.make ~seed:4242 in
    let ranks =
      Array.init draws (fun _ ->
          Rng.zipf zrng ~s:1.1 ~n:(Array.length pool_arr))
    in
    let run fed =
      snd
        (Harness.time (fun () ->
             Array.iter
               (fun k ->
                 match F.query fed pool_arr.(k) with
                 | Ok _ -> ()
                 | Error _ ->
                   Harness.fail "service bench: query failed mid-stream")
               ranks))
    in
    let cached_dt = run cached in
    let per_call_dt = run per_call in
    let s = F.stats cached and p = F.stats per_call in
    Harness.check
      (s.F.queries_served - s.F.cache_hits = Array.length pool_arr)
      "service bench: cached federation missed %d of %d queries at %d \
       relations, expected only the %d warm-up misses"
      (s.F.queries_served - s.F.cache_hits)
      s.F.queries_served relations (Array.length pool_arr);
    Harness.check (p.F.cache_hits = 0)
      "service bench: plan-per-call twin hit its cache %d times at %d \
       relations"
      p.F.cache_hits relations;
    Printf.sprintf
      {|{"kind":"zipf","relations":%d,"joins_per_query":%d,"pool":%d,"draws":%d,"s":1.1,"cached_seconds":%.9f,"per_call_seconds":%.9f,"cached_qps":%.1f,"per_call_qps":%.1f,"speedup":%.1f,"cache_hits":%d,"queries_served":%d,"per_call_cache_hits":%d,"per_call_queries_served":%d}|}
      relations joins_per_query (Array.length pool_arr) draws cached_dt
      per_call_dt
      (float_of_int draws /. cached_dt)
      (float_of_int draws /. per_call_dt)
      (per_call_dt /. cached_dt) s.F.cache_hits s.F.queries_served
      p.F.cache_hits p.F.queries_served
  in
  (* Revoke storm: strip and re-grant base rules while serving the
     pool; every served response must re-prove against the base policy
     as it stands at serve time. *)
  let storm ~relations ~rounds =
    let rng = Rng.make ~seed:(97 * relations) in
    let sys =
      System_gen.generate rng ~relations ~servers:relations ~extra:2
        ~topology:System_gen.Chain
    in
    let policy =
      Authz_gen.generate
        (Rng.make ~seed:(relations + 7))
        ~max_path:2 ~attr_keep:1.0 ~density:0.8 sys
    in
    let joins = sys.System_gen.join_graph in
    let instances = Data_gen.instances rng ~rows:2 sys in
    let svc =
      F.create ~catalog:sys.System_gen.catalog ~policy ~close_under:joins
        ~instances:(fun r -> instances r)
        ()
    in
    let pool = sql_pool sys ~seed:5000 ~joins:2 8 in
    let served = ref 0 and stale = ref 0 and storm_revokes = ref 0 in
    let serve sql =
      match F.query svc sql with
      | Error _ -> ()
      | Ok r ->
        incr served;
        if unproven ~joins sys.System_gen.catalog svc r then incr stale
    in
    List.iter serve pool;
    let srng = Rng.make ~seed:77 in
    for _ = 1 to rounds do
      match Authz.Policy.authorizations (F.base_policy svc) with
      | [] -> ()
      | rules ->
        let a = Rng.choose srng rules in
        F.revoke svc a;
        incr storm_revokes;
        List.iter serve pool;
        F.grant svc a;
        List.iter serve pool
    done;
    Harness.check (!stale = 0) "service bench: %d STALE EXECUTIONS in storm"
      !stale;
    let s = F.stats svc in
    Printf.sprintf
      {|{"kind":"revoke-storm","relations":%d,"rounds":%d,"revokes":%d,"queries_served":%d,"stale_executions":%d,"invalidations":%d,"cache_hits":%d,"epoch":%d}|}
      relations rounds !storm_revokes !served !stale s.F.invalidations
      s.F.cache_hits s.F.epoch
  in
  let z1 =
    sweep ~relations:8 ~max_path:2 ~joins_per_query:5 ~pool_size:8 ~draws:300
  in
  let z2 =
    sweep ~relations:18 ~max_path:3 ~joins_per_query:5 ~pool_size:12
      ~draws:300
  in
  let st = storm ~relations:6 ~rounds:25 in
  Harness.write_json "BENCH_service.json" ~bench:"federation-service"
    [ z1; z2; st ]

(* Resilience sweep: a flaky victim server at increasing fault rates,
   served by a breaker-enabled federation vs an identical twin with
   breakers disabled. The victim is a primary whose relations are
   replicated elsewhere, so quarantining it leaves a safe reroute.
   With breakers, the first few crashes trip the victim's breaker and
   every later query plans around the quarantine from the cache — no
   retries, no replans. Without, every faulty query rediscovers the
   crash at execution time and pays a full failover replan +
   re-certification. Written to BENCH_health.json with each side's
   failovers and cache hits; the gate is a count: at the highest fault
   rate the twin fails over, and at least 5x as often as the
   breaker-enabled service (the wall-clock speedup is recorded, not
   gated). Also asserts that every response served while a quarantine was active
   carries a certificate that re-proves (revalidate mode) against the
   live base policy — zero stale epochs, zero uncertified
   post-quarantine executions — and that no outcome is ever untyped. *)

let run_health_bench () =
  let module F = Federation in
  let rng = Rng.make ~seed:505 in
  let sys =
    System_gen.generate rng ~relations:12 ~servers:4 ~extra:2
      ~topology:System_gen.Chain
  in
  let servers = Array.of_list (System_gen.servers sys) in
  (* Replicate every relation at the next server round-robin: whichever
     server ends up quarantined, every relation keeps a live replica
     elsewhere, so a safe reroute always exists. *)
  let catalog =
    List.fold_left
      (fun cat (schema : Schema.t) ->
        let name = schema.Schema.name in
        match Catalog.server_of cat name with
        | Error _ -> cat
        | Ok primary ->
          let i = ref 0 in
          Array.iteri
            (fun j s -> if Server.equal s primary then i := j)
            servers;
          let at = servers.((!i + 1) mod Array.length servers) in
          (match Catalog.replicate cat name ~at with
           | Ok cat -> cat
           | Error _ -> cat))
      sys.System_gen.catalog
      (Catalog.schemas sys.System_gen.catalog)
  in
  let policy =
    Authz_gen.generate
      (Rng.make ~seed:506)
      ~max_path:3 ~attr_keep:1.0 ~density:1.0 sys
  in
  let joins = sys.System_gen.join_graph in
  let instances = Data_gen.instances rng ~rows:2 sys in
  let mk ~breaker =
    F.create ~catalog ~policy ~close_under:joins ~breaker
      ~health_config:
        (Distsim.Health.config ~failure_threshold:2 ~cooldown:500 ~window:8 ())
      ~instances:(fun r -> instances r)
      ()
  in
  let pool = sql_pool sys ~seed:7000 ~joins:4 10 in
  Harness.check (List.length pool >= 2) "health bench: degenerate pool";
  let pool_arr = Array.of_list pool in
  let draws = 200 in
  (* Pick the victim empirically: the server the warmed plans bind most
     often — crashing it is guaranteed to hurt. *)
  let victim =
    let probe = mk ~breaker:true in
    let tally = Hashtbl.create 8 in
    let bump s =
      Hashtbl.replace tally (Server.name s)
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally (Server.name s)))
    in
    Array.iter
      (fun sql ->
        match F.query probe sql with
        | Error _ -> ()
        | Ok r ->
          List.iter
            (fun (_, (e : Planner.Assignment.executor)) ->
              bump e.Planner.Assignment.master;
              Option.iter bump e.Planner.Assignment.slave;
              Option.iter bump e.Planner.Assignment.coordinator)
            (Planner.Assignment.bindings r.F.assignment))
      pool_arr;
    let best = ref (Array.get servers 0) and best_n = ref (-1) in
    Array.iter
      (fun s ->
        let n = Option.value ~default:0 (Hashtbl.find_opt tally (Server.name s)) in
        if n > !best_n then begin
          best := s;
          best_n := n
        end)
      servers;
    !best
  in
  let sweep_rate rate =
    let enabled = mk ~breaker:true and disabled = mk ~breaker:false in
    (* Clean warm-up: both caches hold certified victim-routed plans. *)
    Array.iter
      (fun sql ->
        match (F.query enabled sql, F.query disabled sql) with
        | Ok a, Ok b ->
          Harness.check
            (Relation.equal a.F.result b.F.result)
            "health bench: enabled/disabled result drift"
        | _ -> Harness.fail "health bench: warm-up query failed")
      pool_arr;
    let zr = Rng.make ~seed:(9000 + int_of_float (rate *. 100.)) in
    let ranks =
      Array.init draws (fun _ -> Rng.zipf zr ~s:1.1 ~n:(Array.length pool_arr))
    in
    let faulty = Array.init draws (fun _ -> Rng.float zr < rate) in
    let run svc =
      let ok = ref 0
      and degraded = ref 0
      and failovers = ref 0
      and steps = ref []
      and post = ref [] in
      let fseed = ref 0 in
      let (), dt =
        Harness.time (fun () ->
            Array.iteri
              (fun i k ->
                let fault =
                  if faulty.(i) then begin
                    incr fseed;
                    Some
                      (Distsim.Fault.make
                         ~crashes:[ Distsim.Fault.crash victim ~at:1 ]
                         ~max_retries:2 ~seed:!fseed ())
                  end
                  else None
                in
                let quarantine_active = F.quarantined_servers svc <> [] in
                match F.query ?fault svc pool_arr.(k) with
                | Ok r ->
                  incr ok;
                  failovers := !failovers + List.length r.F.failovers;
                  steps := r.F.steps :: !steps;
                  if quarantine_active then post := r :: !post
                | Error (F.Degraded { failovers = n; _ }) ->
                  incr degraded;
                  failovers := !failovers + n
                | Error (F.Infeasible _) -> incr degraded
                | Error e ->
                  Harness.fail "health bench: untyped outcome mid-stream: %a"
                    F.pp_error e)
              ranks)
      in
      (dt, !ok, !degraded, !failovers, List.rev !steps, List.rev !post)
    in
    let e_dt, e_ok, e_deg, e_fo, e_steps, e_post = run enabled in
    let d_dt, d_ok, d_deg, d_fo, _, d_post = run disabled in
    Harness.check (d_post = [])
      "health bench: breaker-disabled twin reported a quarantine";
    (* Post-quarantine safety: every response served while the victim
       was quarantined re-proves against the live base policy. *)
    let uncertified =
      List.length (List.filter (unproven ~joins catalog enabled) e_post)
    in
    Harness.check (uncertified = 0)
      "health bench: %d UNCERTIFIED post-quarantine executions" uncertified;
    let p99 l =
      match List.sort compare l with
      | [] -> 0
      | sorted ->
        let n = List.length sorted in
        List.nth sorted (min (n - 1) (n * 99 / 100))
    in
    let stats = F.stats enabled and twin = F.stats disabled in
    let entry =
      Printf.sprintf
        {|{"kind":"flaky-sweep","fault_rate":%.2f,"draws":%d,"enabled_seconds":%.9f,"disabled_seconds":%.9f,"enabled_qps":%.1f,"disabled_qps":%.1f,"speedup":%.1f,"enabled_ok":%d,"enabled_degraded":%d,"disabled_ok":%d,"disabled_degraded":%d,"enabled_failovers":%d,"disabled_failovers":%d,"enabled_cache_hits":%d,"disabled_cache_hits":%d,"breaker_opens":%d,"quarantined":%d,"p99_steps":%d,"post_quarantine_checked":%d,"uncertified_post_quarantine":%d}|}
        rate draws e_dt d_dt
        (float_of_int draws /. e_dt)
        (float_of_int draws /. d_dt)
        (d_dt /. e_dt) e_ok e_deg d_ok d_deg e_fo d_fo stats.F.cache_hits
        twin.F.cache_hits stats.F.breaker_opens stats.F.quarantined
        (p99 e_steps) (List.length e_post) uncertified
    in
    (entry, (e_fo, d_fo))
  in
  let rates = [ 0.0; 0.25; 0.5; 1.0 ] in
  let points = List.map sweep_rate rates in
  let e_fo, d_fo = snd (List.nth points (List.length points - 1)) in
  Harness.check
    (d_fo > 0 && d_fo >= 5 * e_fo)
    "health bench: breaker-less twin failed over %d times at full fault \
     rate, want at least one and 5x the breaker's %d"
    d_fo e_fo;
  (* Deadline-hit profile: the budget a clean run needs, doubled, and
     the fraction of queries that meet it per fault rate under the
     breaker-enabled service. *)
  let deadline_profile =
    let clean = mk ~breaker:true in
    let clean_steps =
      Array.to_list pool_arr
      |> List.filter_map (fun sql ->
             match F.query clean sql with
             | Ok r -> Some r.F.steps
             | Error _ -> None)
    in
    (* Just above what the slowest clean run needs: cached, rerouted
       serving stays inside it; a failover that has to rediscover the
       crash at execution time does not. *)
    let budget = 2 + List.fold_left max 1 clean_steps in
    List.map
      (fun rate ->
        let svc = mk ~breaker:true in
        Array.iter (fun sql -> ignore (F.query svc sql)) pool_arr;
        let zr = Rng.make ~seed:(9500 + int_of_float (rate *. 100.)) in
        let hit = ref 0 and missed = ref 0 in
        for i = 1 to draws / 2 do
          let k = Rng.zipf zr ~s:1.1 ~n:(Array.length pool_arr) in
          let fault =
            if Rng.float zr < rate then
              Some
                (Distsim.Fault.make
                   ~crashes:[ Distsim.Fault.crash victim ~at:1 ]
                   ~max_retries:2 ~seed:i ())
            else None
          in
          match F.query ?fault ~deadline:budget svc pool_arr.(k) with
          | Ok _ -> incr hit
          | Error (F.Deadline_exceeded _) -> incr missed
          | Error _ -> ()
        done;
        Printf.sprintf
          {|{"kind":"deadline-hit","fault_rate":%.2f,"deadline_steps":%d,"hit":%d,"missed":%d,"hit_rate":%.3f}|}
          rate budget !hit !missed
          (float_of_int !hit /. float_of_int (max 1 (!hit + !missed))))
      rates
  in
  Harness.write_json "BENCH_health.json" ~bench:"service-resilience"
    (List.map fst points @ deadline_profile)

(* ------------------------------------------------------------------ *)
(* Executor sweep: the columnar batch executor vs the tuple-at-a-time
   tree-set operators (Oracle.Tree_relation) on a select-join-project
   pipeline at growing row counts (asserts >= 10x row throughput at the
   10^6-row point, and result equality at every point — the bench
   doubles as a differential), with the positional default
   ([Algebra.eval]) timed alongside, ungated, plus
   the Bloom semi-join wire sweep on scaled medical instances (asserts
   the filter leg ships strictly fewer bytes than the projected
   column, and the whole Bloom run strictly fewer total bytes, at
   every rows x bits point — with identical answers and clean audits).
   Written to BENCH_exec.json. *)

let run_exec_bench () =
  (* Throughput pipeline: project(join(select(R), S)) — the
     selection-pushdown shape the planner emits. 5% of R survives the
     selection; 10% of R's keys hit S. Each executor runs on its native
     representation: the tree-set twin evaluates tuple-at-a-time over
     its tree sets (built untimed), the positional default over its
     row arrays, the batch executor over pre-encoded columns (as in
     [Batch.eval], which encodes each leaf once per run). The one-time
     dictionary encode is timed separately and reported alongside, and
     the positional and decoded batch results are asserted equal to
     the twin's answer, untimed. The gate's baseline stays the
     tree-set operators it was set against. *)
  let r_schema = Schema.make "XR" ~key:[ "K" ] [ "K"; "A"; "B" ] in
  let s_schema = Schema.make "XS" ~key:[ "L" ] [ "L"; "C" ] in
  let k = Attribute.make ~relation:"XR" "K" in
  let a = Attribute.make ~relation:"XR" "A" in
  let b = Attribute.make ~relation:"XR" "B" in
  let l = Attribute.make ~relation:"XS" "L" in
  let c = Attribute.make ~relation:"XS" "C" in
  let attrs = Attribute.Set.of_list [ k; c ] in
  let pred = Predicate.Cmp (b, Predicate.Lt, Const (Value.Int 5)) in
  let cond = Joinpath.Cond.eq a l in
  let expr =
    Algebra.Project
      ( attrs,
        Algebra.Join
          ( cond,
            Algebra.Select (pred, Algebra.Relation r_schema),
            Algebra.Relation s_schema ) )
  in
  let throughput_point n =
    let r_rows =
      List.init n (fun i ->
          [ Value.Int i; Value.Int (i mod 1000); Value.Int (i mod 100) ])
    and s_rows = List.init 100 (fun j -> [ Value.Int j; Value.Int (j * j) ]) in
    let r = Relation.of_rows r_schema r_rows
    and s = Relation.of_rows s_schema s_rows in
    let lookup schema = if Schema.name schema = "XR" then r else s in
    let naive_res, naive_dt =
      let module T = Oracle.Tree_relation in
      (* Built from the row lists, as the tree sets always were here:
         built through [T.of_relation] instead, their tuples would be
         allocated in sorted order, which a traversal then walks
         sequentially — about 2x faster at 10^6 rows. *)
      let rt = T.of_rows r_schema r_rows and st = T.of_rows s_schema s_rows in
      let lookup schema = if Schema.name schema = "XR" then rt else st in
      let res, dt = Harness.best_of (fun () -> T.eval ~lookup expr) in
      (T.to_relation res, dt)
    in
    let positional_res, positional_dt =
      Harness.best_of (fun () -> Algebra.eval ~lookup expr)
    in
    Harness.check
      (Relation.equal naive_res positional_res)
      "exec bench: positional result drift at %d rows" n;
    let dict = Batch.Dict.create () in
    let (rb, sb), encode_dt =
      Harness.time (fun () ->
          (Batch.of_relation dict r, Batch.of_relation dict s))
    in
    let batch_out, batch_dt =
      Harness.best_of (fun () ->
          Batch.project attrs (Batch.equi_join cond (Batch.select pred rb) sb))
    in
    Harness.check
      (Relation.equal naive_res (Batch.to_relation batch_out))
      "exec bench: batch result drift at %d rows" n;
    let rows = float_of_int (n + 100) in
    let speedup = naive_dt /. batch_dt in
    ( Printf.sprintf
        {|{"kind":"throughput","rows":%d,"result_rows":%d,"naive_seconds":%.9f,"positional_seconds":%.9f,"batch_seconds":%.9f,"encode_seconds":%.9f,"naive_rows_per_s":%.0f,"batch_rows_per_s":%.0f,"speedup":%.2f}|}
        n
        (Relation.cardinality naive_res)
        naive_dt positional_dt batch_dt encode_dt (rows /. naive_dt)
        (rows /. batch_dt) speedup,
      speedup )
  in
  (* Bloom wire sweep: the medical plan of Figure 2 on scaled
     instances — 90% of citizens insured, half hospitalised, so the
     semi-join reducer (n1's Join_attributes leg) carries ~0.9 * rows
     key values. *)
  let bloom_points rows =
    let plan = Lazy.force medical_plan in
    let assignment =
      match
        Planner.Safe_planner.plan Scenario.Medical.catalog
          Scenario.Medical.policy plan
      with
      | Ok r -> r.Planner.Safe_planner.assignment
      | Error _ -> assert false
    in
    let scaled name =
      let module M = Scenario.Medical in
      let ids = List.init rows (fun i -> i) in
      match name with
      | "Insurance" ->
        Some
          (Relation.of_rows M.insurance
             (List.filter_map
                (fun i ->
                  if i mod 10 = 0 then None
                  else Some [ Value.Int i; Value.Int (i mod 5) ])
                ids))
      | "Nat_registry" ->
        Some
          (Relation.of_rows M.nat_registry
             (List.map (fun i -> [ Value.Int i; Value.Int (i mod 7) ]) ids))
      | "Hospital" ->
        Some
          (Relation.of_rows M.hospital
             (List.filter_map
                (fun i ->
                  if i mod 2 = 0 then
                    Some
                      [ Value.Int i; Value.Int (i mod 11); Value.Int (i mod 13) ]
                  else None)
                ids))
      | other -> M.instances other
    in
    let reducer_bytes net =
      List.fold_left
        (fun acc (m : Distsim.Network.message) ->
          match m.Distsim.Network.purpose with
          | Distsim.Network.Join_attributes _ ->
            acc + Distsim.Network.wire_bytes m
          | _ -> acc)
        0
        (Distsim.Network.messages net)
    in
    let run ?bloom () =
      Distsim.Engine.execute
        ~executor:(module Batch.Exec)
        ?bloom Scenario.Medical.catalog ~instances:scaled plan assignment
      |> Result.map_error (fun e ->
             Harness.fail "exec bench: medical run failed at %d rows: %a" rows
               Distsim.Engine.pp_error e)
    in
    match run () with
    | Error () -> []
    | Ok exact ->
      List.filter_map
        (fun bits ->
          match run ~bloom:bits () with
          | Error () -> None
          | Ok bloomed ->
            Harness.check
              (Relation.equal exact.Distsim.Engine.result
                 bloomed.Distsim.Engine.result)
              "exec bench: bloom result drift at %d rows, %d bits" rows bits;
            List.iter
              (fun (o : Distsim.Engine.outcome) ->
                Harness.check
                  (Distsim.Audit.is_clean Scenario.Medical.policy o.network)
                  "exec bench: audit violation at %d rows" rows)
              [ exact; bloomed ];
            let eb = reducer_bytes exact.Distsim.Engine.network in
            let bb = reducer_bytes bloomed.Distsim.Engine.network in
            Harness.check (bb < eb)
              "exec bench: bloom reducer not below the projected column at \
               %d rows, %d bits (%d >= %d)"
              rows bits bb eb;
            let et = Distsim.Network.total_bytes exact.Distsim.Engine.network in
            let bt =
              Distsim.Network.total_bytes bloomed.Distsim.Engine.network
            in
            Harness.check (bt < et)
              "exec bench: bloom run not below the exact run at %d rows, %d \
               bits (%d >= %d)"
              rows bits bt et;
            Some
              (Printf.sprintf
                 {|{"kind":"bloom","rows":%d,"bits_per_key":%d,"exact_reducer_bytes":%d,"bloom_reducer_bytes":%d,"exact_total_bytes":%d,"bloom_total_bytes":%d,"reducer_saving":%.2f}|}
                 rows bits eb bb et bt
                 (1.0 -. (float_of_int bb /. float_of_int eb))))
        [ 4; 8; 16 ]
  in
  let throughput =
    List.map throughput_point [ 10_000; 100_000; 1_000_000 ]
  in
  let top_speedup = snd (List.nth throughput (List.length throughput - 1)) in
  Harness.check
    (not (top_speedup < 10.0))
    "exec bench: batch speedup %.1fx below the 10x budget at 10^6 rows"
    top_speedup;
  Harness.write_json "BENCH_exec.json" ~bench:"executor-throughput"
    (List.map fst throughput @ List.concat_map bloom_points [ 200; 1000; 4000 ])

(* ------------------------------------------------------------------ *)

let benches =
  [
    ("inference", run_inference_bench);
    ("chase", run_chase_bench);
    ("certify", run_certify_bench);
    ("faults", run_fault_bench);
    ("service", run_service_bench);
    ("health", run_health_bench);
    ("exec", run_exec_bench);
  ]

let () =
  let quick = ref false in
  let named = List.map (fun (name, _) -> (name, ref false)) benches in
  Harness.parse_argv ~prog:"bench"
    (Harness.Word ("quick", quick)
    :: List.map (fun (name, r) -> Harness.Word (name, r)) named);
  let jobs =
    match List.filter (fun (name, _) -> !(List.assoc name named)) benches with
    | _ :: _ as chosen -> chosen
    | [] ->
      [
        ("figures", fun () -> Fmt.pr "%s@." (Scenario.Paper_figures.all ()));
        ( "tables",
          fun () -> Tables.run_all ~seeds:(if !quick then 40 else 100) );
      ]
      @ benches
      @ if !quick then [] else [ ("micro", run_micro) ]
  in
  exit (Harness.run ~prog:"bench" jobs)
