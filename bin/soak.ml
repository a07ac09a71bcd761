(* Randomized soak: random federations through the full pipeline.

   Clean slice (--cases, default 2000): greedy-infeasible implies
   exhaustively infeasible (completeness on small plans), planner
   output passes the independent safety checker, distributed execution
   equals centralized evaluation, and the runtime audit is clean. Every
   other seed's data holds NULLs, here and in the executor slice.

   Executor slice (--exec-cases, default 500): the physical-executor
   differential — each safely planned case re-runs under the columnar
   batch executor, under Bloom-reduced semi-joins, and under both;
   every variant must equal the centralized reference, audit clean,
   and exchange exactly as many messages as the reference run. Every
   run and the centralized reference must also equal the tree-set
   twin (Oracle.Tree_relation) evaluating the same plan, and every run
   of the compiled engine must equal the tree-walking interpreter's
   (Oracle.Interpreter) message for message.

   Fault slice (--fault-cases, default 1000): the same differential
   under seeded fault injection — crash windows, lossy and corrupting
   links — run through the recovery supervisor. A recovered run must
   equal the centralized reference and leave a clean cumulative audit
   (aborted attempts included); an unrecoverable run must fail *typed*,
   with every emission it did make still authorized. Every 50th seed is
   re-run from scratch to assert bit-for-bit replay determinism:
   identical message log, retry schedule and outcome.

   Knowledge slice (--knowledge-cases, default 2000): the
   static-vs-runtime inference differential at soak scale — on each
   executed workload, the static knowledge accumulated from
   Planner.Safety.flows must equal the runtime replay of the message
   log, the semi-naive indexed saturation must reach the same
   CISQP030/031 verdicts as the naive reference engine, and linting
   the runtime log must agree with linting the planned flows.

   Certificate slice (--certify-cases, default 2000): proof-carrying
   safety at soak scale — every safely planned random case must emit a
   plan certificate the independent checker accepts against the base
   policy (every third case plans against the chase closure, so the
   certificate carries Composed derivation chains replayed from the
   pre-chase base), the certificate must survive a JSON round-trip,
   and every 50th certified case replays seeded forgeries (stale
   epoch, out-of-range witness, dropped flow) that the checker must
   reject. The fault slice additionally asserts every recovered run
   and every failover carries a certificate that re-checks.

   Health slice (--health-cases, default 300): the resilience
   differential — replicated federations with circuit breakers enabled
   under repeated victim crashes; responses rerouted around the
   quarantine must equal the centralized reference, never bind a
   quarantined executor, and re-prove their certificates against the
   live base policy; shed/quota rejections stay typed and off the audit
   log; blown deadlines surface as the typed error.

   The slices run through the bench harness (bench/harness): a failed
   check prints its message on stderr and is counted, every slice
   still runs, and the exit status is then 1; stdout holds the counts
   alone. Slower than the unit suite; run on demand (`dune exec
   bin/soak.exe -- --cases N --fault-cases M --knowledge-cases K
   --certify-cases C`) or bounded via `dune build @soak`, which also
   diffs stdout against bin/soak.expected.

   Historical note: the clean slice is what exposed the co-location gap
   in the paper's Figure-6 pseudo-code (see DESIGN.md, "Local joins"). *)
open Relalg
open Workload

let cases = ref 2000
let fault_cases = ref 2000
let knowledge_cases = ref 2000
let certify_cases = ref 2000
let service_cases = ref 500
let health_cases = ref 300
let exec_cases = ref 500

(* The topology of case [seed]: chain, star or a random spanning tree
   plus [extra_edges] chords, by [seed mod 3]. *)
let topology ~extra_edges seed =
  match seed mod 3 with
  | 0 -> System_gen.Chain
  | 1 -> System_gen.Star
  | _ -> System_gen.Random { extra_edges }

(* Every other seed's data holds NULLs, NULL join keys included, which
   match each other. Both slices draw their data last, so the share
   moves no count. *)
let null_share seed = if seed mod 2 = 0 then 0.15 else 0.0

(* ------------------------------------------------------------------ *)
(* Clean slice.                                                        *)

let clean_slice () =
  let planned = ref 0 and total = ref 0 in
  for seed = 1 to !cases do
    let rng = Rng.make ~seed in
    let topology = topology ~extra_edges:2 seed in
    let relations = 4 + (seed mod 4) in
    let sys =
      System_gen.generate ~replication:(if seed mod 5 = 0 then 0.5 else 0.0)
        rng ~relations ~servers:relations ~extra:2 ~topology
    in
    let density = [| 0.2; 0.4; 0.6; 0.9 |].(seed mod 4) in
    let policy = Authz_gen.generate rng ~density sys in
    match Query_gen.generate_plan rng ~joins:(2 + (seed mod 3)) sys with
    | None -> ()
    | Some plan ->
      incr total;
      (match Planner.Safe_planner.plan sys.catalog policy plan with
       | Error _ ->
         Harness.check
           (not
              (Plan.join_count plan <= 3
              && Planner.Exhaustive.feasible sys.catalog policy plan))
           "INCOMPLETE greedy at seed %d" seed
       | Ok { assignment; _ } ->
         incr planned;
         (match Planner.Safety.check sys.catalog policy plan assignment with
          | Ok _ -> ()
          | Error _ -> Harness.fail "UNSAFE plan at seed %d" seed);
         let instances =
           Data_gen.instances rng ~rows:12 ~null_share:(null_share seed) sys
         in
         (match Distsim.Engine.execute sys.catalog ~instances plan assignment with
          | Error e ->
            Harness.fail "ENGINE error at seed %d: %a" seed
              Distsim.Engine.pp_error e
          | Ok { result; network; _ } ->
            let reference = Distsim.Engine.centralized ~instances plan in
            Harness.check
              (Relation.equal result reference)
              "WRONG RESULT at seed %d" seed;
            Harness.check
              (Distsim.Audit.is_clean policy network)
              "AUDIT failure at seed %d" seed))
  done;
  Fmt.pr "soak (clean): %d cases, %d planned@." !total !planned

(* ------------------------------------------------------------------ *)
(* Executor slice: reference vs batch vs batch+bloom on random
   federations. All three runs of each case must produce the
   centralized reference answer, leave a clean audit, and — since the
   executor changes only the physical operators and the Bloom variant
   only the wire representation — exchange exactly as many messages as
   the reference run. The centralized answer and every run, the
   default executor's included, must also equal the tree-set twin's
   evaluation of the plan: the centralized answer runs on the default
   executor's operators, so a defect they share would cancel out of the
   first comparison. *)

module Twin = Oracle.Tree_relation

let twin_eval ~instances plan =
  let lookup schema =
    Twin.of_relation (Option.get (instances (Schema.name schema)))
  in
  Twin.eval ~lookup (Plan.to_algebra plan)

let exec_slice () =
  let total = ref 0 in
  for seed = 1 to !exec_cases do
    let rng = Rng.make ~seed:(300_000 + seed) in
    let topology = topology ~extra_edges:2 seed in
    let relations = 4 + (seed mod 4) in
    let sys =
      System_gen.generate rng ~relations ~servers:relations ~extra:2 ~topology
    in
    let density = [| 0.4; 0.6; 0.9 |].(seed mod 3) in
    let policy = Authz_gen.generate rng ~density sys in
    match Query_gen.generate_plan rng ~joins:(2 + (seed mod 3)) sys with
    | None -> ()
    | Some plan -> (
      match Planner.Safe_planner.plan sys.catalog policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } ->
        incr total;
        let instances =
          Data_gen.instances rng ~rows:12 ~null_share:(null_share seed) sys
        in
        let reference = Distsim.Engine.centralized ~instances plan in
        let twin = twin_eval ~instances plan in
        (* The cardinality catches duplicate rows, which the tree set
           would collapse. *)
        let matches_twin what result =
          Harness.check
            (Relation.cardinality result = Twin.cardinality twin
            && Twin.equal (Twin.of_relation result) twin)
            "EXEC %s differs from the tree-set twin at seed %d" what seed
        in
        matches_twin "centralized" reference;
        let bloom_bits = [| 2; 4; 8; 16 |].(seed mod 4) in
        let variants =
          [
            ("batch", Some (module Batch.Exec : Exec.S), None);
            ("bloom", Some (module Batch.Exec : Exec.S), Some bloom_bits);
            ("naive+bloom", None, Some bloom_bits);
          ]
        in
        let baseline_messages = ref None in
        (* Every run, the compiled engine's, against the tree-walking
           interpreter's: result, message log, node rows and steps. *)
        let execute ?executor ?bloom what =
          let compiled =
            Distsim.Engine.execute ?executor ?bloom sys.catalog ~instances plan
              assignment
          in
          Harness.check
            (Oracle.Interpreter.equal_result compiled
               (Oracle.Interpreter.execute ?executor ?bloom sys.catalog
                  ~instances plan assignment))
            "EXEC %s differs from the interpreter at seed %d" what seed;
          compiled
        in
        (match execute "baseline" with
         | Error e ->
           Harness.fail "EXEC baseline error at seed %d: %a" seed
             Distsim.Engine.pp_error e
         | Ok { result; network; _ } ->
           matches_twin "baseline" result;
           baseline_messages := Some (Distsim.Network.message_count network));
        List.iter
          (fun (what, executor, bloom) ->
            match execute ?executor ?bloom what with
            | Error e ->
              Harness.fail "EXEC %s error at seed %d: %a" what seed
                Distsim.Engine.pp_error e
            | Ok { result; network; _ } ->
              Harness.check
                (Relation.equal result reference)
                "EXEC %s WRONG RESULT at seed %d" what seed;
              matches_twin what result;
              Harness.check
                (Distsim.Audit.is_clean policy network)
                "EXEC %s AUDIT failure at seed %d" what seed;
              Harness.check
                (!baseline_messages
                = Some (Distsim.Network.message_count network))
                "EXEC %s protocol drift at seed %d" what seed)
          variants)
  done;
  Fmt.pr "soak (exec): %d cases x 3 executor variants@." !total

(* ------------------------------------------------------------------ *)
(* Fault slice.                                                        *)

(* Regenerate a whole faulty case from its seed — system, policy, plan,
   data and fault plan all flow from one RNG, so the replay check can
   rebuild the case bit-for-bit. Replication 0.6 gives permanent
   crashes something to fail over to. *)
let fault_case seed =
  let rng = Rng.make ~seed:(900_000 + seed) in
  let topology = topology ~extra_edges:2 seed in
  let relations = 4 + (seed mod 3) in
  let sys =
    System_gen.generate ~replication:0.6 rng ~relations ~servers:relations
      ~extra:2 ~topology
  in
  let density = [| 0.4; 0.6; 0.9 |].(seed mod 3) in
  let policy = Authz_gen.generate rng ~density sys in
  match Query_gen.generate_plan rng ~joins:(2 + (seed mod 2)) sys with
  | None -> None
  | Some plan ->
    (match Planner.Third_party.plan ~helpers:[] sys.catalog policy plan with
     | Error _ -> None (* no fault-free baseline: nothing to recover *)
     | Ok _ ->
       let instances = Data_gen.instances rng ~rows:10 sys in
       let fault =
         Distsim.Fault.random_plan rng ~servers:(System_gen.servers sys)
       in
       Some (sys, policy, plan, instances, fault))

let run_case (sys : System_gen.t) policy plan instances fault =
  Distsim.Recover.execute sys.System_gen.catalog policy ~instances ~fault plan

(* A faithful rendering of everything determinism promises: the
   cumulative message log, the injector's event schedule and the
   outcome itself (result relation included). *)
let render (o : Distsim.Recover.outcome) =
  let log l = Fmt.str "%a" Distsim.Network.pp l in
  let sched s =
    Fmt.str "%a" Fmt.(list ~sep:(any "\n") Distsim.Fault.pp_event) s
  in
  match o with
  | Ok r ->
    Fmt.str "OK %a @@%a | %s | %s | %a" Relation.pp r.Distsim.Recover.result
      Server.pp r.Distsim.Recover.location
      (log r.Distsim.Recover.log)
      (sched r.Distsim.Recover.schedule)
      Distsim.Recover.pp_outcome o
  | Error d ->
    Fmt.str "ERR %a | %s | %s" Distsim.Recover.pp_reason
      d.Distsim.Recover.reason
      (log d.Distsim.Recover.log)
      (sched d.Distsim.Recover.schedule)

let fault_slice () =
  let total = ref 0
  and recovered = ref 0
  and failed_over = ref 0
  and degraded = ref 0
  and replayed = ref 0 in
  for seed = 1 to !fault_cases do
    match fault_case seed with
    | None -> ()
    | Some (sys, policy, plan, instances, fault) ->
      incr total;
      let outcome = run_case sys policy plan instances fault in
      (match outcome with
       | Ok r ->
         incr recovered;
         if r.Distsim.Recover.failovers <> [] then incr failed_over;
         let reference = Distsim.Engine.centralized ~instances plan in
         Harness.check
           (Relation.equal r.Distsim.Recover.result reference)
           "FAULT WRONG RESULT at seed %d" seed;
         Harness.check
           (Distsim.Audit.is_clean policy r.Distsim.Recover.log)
           "FAULT AUDIT failure at seed %d (recovered run)" seed;
         (* Proof-carrying failover: the assignment that answered, and
            the replacement assignment of every failover on the way,
            must carry a certificate the independent checker accepts. *)
         if not (Authz.Policy.is_open policy) then begin
           let module C = Analysis.Certificate in
           let joins = sys.System_gen.join_graph in
           let recheck what = function
             | None ->
               Harness.fail "FAULT MISSING %s certificate at seed %d" what seed
             | Some cert -> (
               match
                 C.check_plan ~joins sys.System_gen.catalog policy plan cert
               with
               | [] -> ()
               | f :: _ ->
                 Harness.fail "FAULT %s certificate rejected at seed %d: %a"
                   what seed C.pp_failure f)
           in
           recheck "final" r.Distsim.Recover.certificate;
           List.iter
             (fun (f : Distsim.Recover.failover) ->
               recheck "failover" f.Distsim.Recover.certificate)
             r.Distsim.Recover.failovers
         end
       | Error d ->
         incr degraded;
         (* Typed failure is acceptable; an unauthorized emission on
            the way down is not. *)
         Harness.check
           (Distsim.Audit.is_clean policy d.Distsim.Recover.log)
           "FAULT AUDIT failure at seed %d (degraded run)" seed);
      if seed mod 50 = 0 then begin
        (* Replay determinism: rebuild the case from scratch and demand
           an identical transcript. *)
        incr replayed;
        match fault_case seed with
        | None -> ()
        | Some (sys', policy', plan', instances', fault') ->
          let again = run_case sys' policy' plan' instances' fault' in
          Harness.check
            (render outcome = render again)
            "NON-DETERMINISTIC replay at seed %d" seed
      end
  done;
  Fmt.pr
    "soak (fault): %d cases, %d recovered (%d after failover), %d degraded, \
     %d replayed@."
    !total !recovered !failed_over !degraded !replayed

(* ------------------------------------------------------------------ *)
(* Knowledge slice: static vs runtime vs incremental inference.        *)

let knowledge_slice () =
  let module K = Analysis.Knowledge in
  (* Distinct (code, server) verdicts: which servers get a CISQP030 /
     CISQP031. Witness items and same-code multiplicities depend on
     each engine's exploration order; the verdict set does not. *)
  let verdicts policy (o : K.outcome) =
    List.sort_uniq compare
      (List.map
         (fun (l : K.leak) -> ("CISQP030", Server.to_string l.K.server))
         (K.leaks policy o.K.knowledge)
      @ List.map (fun s -> ("CISQP031", Server.to_string s)) o.K.exhausted)
  in
  let diag_verdicts diags =
    List.sort_uniq compare
      (List.map
         (fun (d : Analysis.Diagnostic.t) ->
           (d.Analysis.Diagnostic.code,
            Fmt.str "%a" Analysis.Diagnostic.pp_location
              d.Analysis.Diagnostic.location))
         diags)
  in
  let total = ref 0 and leaking = ref 0 in
  let seed = ref 0 in
  while !total < !knowledge_cases && !seed < 10 * !knowledge_cases do
    incr seed;
    let seed = !seed in
    let rng = Rng.make ~seed:(500_000 + seed) in
    let topology = topology ~extra_edges:1 seed in
    let relations = 3 + (seed mod 3) in
    let sys =
      System_gen.generate rng ~relations ~servers:relations ~extra:2
        ~replication:(if seed mod 4 = 0 then 0.3 else 0.0)
        ~topology
    in
    let density = [| 0.5; 0.75; 1.0 |].(seed mod 3) in
    let policy = Authz_gen.generate rng ~density sys in
    match Query_gen.generate_plan rng ~joins:(1 + (seed mod 3)) sys with
    | None -> ()
    | Some plan -> (
      match Planner.Safe_planner.plan sys.catalog policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } -> (
        match Planner.Safety.flows sys.catalog plan assignment with
        | Error _ -> ()
        | Ok flows -> (
          let instances = Data_gen.instances rng ~rows:10 sys in
          match
            Distsim.Engine.execute sys.catalog ~instances plan assignment
          with
          | Error _ -> ()
          | Ok { network; _ } ->
            incr total;
            let joins = sys.join_graph in
            let static = K.of_flow_batches sys.catalog [ flows ] in
            let runtime = Oracle.runtime_knowledge sys.catalog network in
            Harness.check (Oracle.equal static runtime)
              "KNOWLEDGE static/runtime drift at seed %d" seed;
            let fast = K.saturate ~joins static in
            let slow = Oracle.saturate ~joins static in
            Harness.check
              (verdicts policy fast = verdicts policy slow)
              "KNOWLEDGE indexed/naive verdict drift at seed %d" seed;
            Harness.check
              (Oracle.subset fast.K.knowledge slow.K.knowledge
              && Oracle.covered_by slow.K.knowledge fast.K.knowledge)
              "KNOWLEDGE coverage failure at seed %d" seed;
            let static_diags = K.lint ~joins policy static in
            let runtime_diags =
              Oracle.runtime_inference ~joins sys.catalog policy network
            in
            Harness.check
              (diag_verdicts static_diags = diag_verdicts runtime_diags)
              "KNOWLEDGE runtime/static verdict drift at seed %d" seed;
            if verdicts policy fast <> [] then incr leaking)))
  done;
  Fmt.pr "soak (knowledge): %d cases, %d with findings@." !total !leaking

(* ------------------------------------------------------------------ *)
(* Certificate slice: proof-carrying safety at soak scale.             *)

let certify_slice () =
  let module C = Analysis.Certificate in
  let total = ref 0 and chased = ref 0 and mutated = ref 0 in
  let seed = ref 0 in
  while !total < !certify_cases && !seed < 10 * !certify_cases do
    incr seed;
    let seed = !seed in
    let rng = Rng.make ~seed:(700_000 + seed) in
    let topology = topology ~extra_edges:2 seed in
    let relations = 4 + (seed mod 3) in
    let sys =
      System_gen.generate rng ~relations ~servers:relations ~extra:2 ~topology
    in
    let density = [| 0.4; 0.6; 0.9 |].(seed mod 3) in
    let policy = Authz_gen.generate rng ~density sys in
    match Query_gen.generate_plan rng ~joins:(2 + (seed mod 2)) sys with
    | None -> ()
    | Some plan ->
      let joins = sys.join_graph in
      (* Every third case plans against the chase closure, so its
         certificate carries Composed derivation chains that the
         checker replays against the pre-chase base policy. *)
      let closed =
        if seed mod 3 = 0 && not (Authz.Policy.is_open policy) then
          Some (Authz.Chase.closed_policy ~joins policy)
        else None
      in
      let serving =
        match closed with Some c -> Authz.Chase.closure c | None -> policy
      in
      (match Planner.Safe_planner.plan sys.catalog serving plan with
       | Error _ -> ()
       | Ok { assignment; _ } when Authz.Policy.is_open policy ->
         ignore assignment
       | Ok { assignment; _ } -> (
         incr total;
         if Option.is_some closed then incr chased;
         let base =
           match closed with Some c -> Authz.Chase.policy c | None -> policy
         in
         match C.emit_plan ?closed sys.catalog serving plan assignment with
         | Error msg -> Harness.fail "CERT EMIT failure at seed %d: %s" seed msg
         | Ok cert ->
           (match C.check_plan ~joins sys.catalog base plan cert with
            | [] -> ()
            | f :: _ ->
              Harness.fail "CERT CHECK failure at seed %d: %a" seed
                C.pp_failure f);
           (* The JSON round-trip must preserve checkability. *)
           (match C.plan_of_json (C.plan_to_json cert) with
            | Error msg ->
              Harness.fail "CERT JSON failure at seed %d: %s" seed msg
            | Ok cert' ->
              Harness.check
                (C.check_plan ~joins sys.catalog base plan cert' = [])
                "CERT ROUND-TRIP failure at seed %d" seed);
           (* Every 50th certified case replays seeded forgeries; the
              checker must reject each (CISQP050 territory). *)
           if !total mod 50 = 0 then begin
             incr mutated;
             let reject what forged =
               Harness.check
                 (C.check_plan ~joins sys.catalog base plan forged <> [])
                 "CERT FORGERY (%s) accepted at seed %d" what seed
             in
             reject "stale epoch" { cert with C.epoch = "deadbeef" };
             match cert.C.flows with
             | [] -> ()
             | f0 :: rest ->
               reject "dropped flow" { cert with C.flows = rest };
               reject "out-of-range witness"
                 {
                   cert with
                   C.flows =
                     { f0 with C.witness = List.length cert.C.rules } :: rest;
                 }
           end))
  done;
  Fmt.pr "soak (certify): %d cases (%d chase-closed), %d mutation replays@."
    !total !chased !mutated

(* ------------------------------------------------------------------ *)
(* Service slice: the multi-tenant federation layer under policy churn. *)

(* Each case drives one long-lived cached federation and one
   plan-per-call twin (cache_capacity 0) through an interleaved
   grant/revoke/query stream over the same system. The differential:
   the cache layer must be transparent (same outcome class, same
   result relation), and — the stale-execution check — every response
   the cached service serves must carry a certificate that still
   passes the independent checker against the *current* base policy
   ([~revalidate:true] skips the epoch pin). A storm phase then
   revokes every base rule one by one, re-querying the pool after
   each; every 50th case re-proves the entire cache instead. *)
let service_slice () =
  let module C = Analysis.Certificate in
  let module F = Federation in
  let total = ref 0
  and served = ref 0
  and revokes = ref 0
  and reproved = ref 0 in
  let seed = ref 0 in
  while !total < !service_cases && !seed < 10 * !service_cases do
    incr seed;
    let seed = !seed in
    let rng = Rng.make ~seed:(800_000 + seed) in
    let topology = topology ~extra_edges:1 seed in
    let relations = 4 + (seed mod 2) in
    let sys =
      System_gen.generate rng ~relations ~servers:relations ~extra:2 ~topology
    in
    (* Densities are kept moderate: every revocation forces a closure
       recompute in *both* federations, and near-saturated policies
       make that quadratic cost dominate the slice. *)
    let density = [| 0.45; 0.6; 0.75 |].(seed mod 3) in
    let policy = Authz_gen.generate rng ~density sys in
    if not (Authz.Policy.is_open policy) then begin
      (* A pool of distinct SQL texts; the stream re-draws from it so
         the cache actually gets hits. Some queries carry one
         [a <= Int] conjunct, which survives the SQL round trip: the
         miss then ranks join orders on it, so the differential and the
         freshness re-proofs below run on reordered plans too. *)
      let pool =
        List.filter_map
          (fun _ ->
            Option.map Query.to_string
              (Query_gen.generate rng ~where_prob:0.3
                 ~joins:(1 + (seed mod 3))
                 sys))
          (List.init 6 (fun i -> i))
        |> List.sort_uniq String.compare
      in
      if pool <> [] then begin
        incr total;
        let joins = sys.System_gen.join_graph in
        let instances = Data_gen.instances rng ~rows:8 sys in
        let mk capacity =
          F.create ~catalog:sys.System_gen.catalog ~policy
            ~close_under:joins ~cache_capacity:capacity
            ~instances:(fun r -> instances r)
            ()
        in
        let svc = mk 4 (* small: exercises LRU eviction *)
        and twin = mk 0 in
        let base_rules () = Authz.Policy.authorizations (F.base_policy svc) in
        let revoked = ref [] in
        let classify = function
          | Ok _ -> "ok"
          | Error (F.Parse_error _) -> "parse"
          | Error (F.Infeasible _) -> "infeasible"
          | Error (F.Execution_error _) -> "exec"
          | Error (F.Degraded _) -> "degraded"
          | Error (F.Audit_violation _) -> "audit"
          | Error (F.Uncertified _) -> "uncertified"
          | Error (F.Rejected _) -> "rejected"
          | Error (F.Deadline_exceeded _) -> "deadline"
        in
        (* Zero stale executions: a served response's proof must still
           check against the base policy as it stands *now*. *)
        let check_fresh what (r : F.response) =
          incr served;
          match r.F.certificate with
          | None ->
            Harness.fail "SERVICE uncertified response at seed %d (%s)" seed
              what
          | Some cert -> (
            match
              C.check_plan ~revalidate:true ~joins sys.System_gen.catalog
                (F.base_policy svc) r.F.plan cert
            with
            | [] -> ()
            | f :: _ ->
              Harness.fail "SERVICE STALE EXECUTION at seed %d (%s): %a" seed
                what C.pp_failure f)
        in
        let run_query what sql =
          let a = F.query svc sql and b = F.query twin sql in
          Harness.check
            (classify a = classify b)
            "SERVICE cached/plan-per-call drift at seed %d (%s): %s vs %s" seed
            what (classify a) (classify b);
          match (a, b) with
          | Ok ra, Ok rb ->
            Harness.check
              (Relation.equal ra.F.result rb.F.result)
              "SERVICE WRONG RESULT at seed %d (%s)" seed what;
            check_fresh what ra
          | _ -> ()
        in
        (* Interleaved stream. *)
        for _ = 1 to 20 do
          let r = Rng.float rng in
          if r < 0.15 then begin
            match base_rules () with
            | [] -> ()
            | rules ->
              let a = Rng.choose rng rules in
              F.revoke svc a;
              F.revoke twin a;
              revoked := a :: !revoked;
              incr revokes
          end
          else if r < 0.3 then begin
            match !revoked with
            | [] -> ()
            | a :: rest ->
              F.grant svc a;
              F.grant twin a;
              revoked := rest
          end
          else
            let k = Rng.zipf rng ~s:1.1 ~n:(List.length pool) in
            run_query "stream" (List.nth pool k)
        done;
        if seed mod 50 = 0 then begin
          (* Full re-proof of everything still cached. *)
          incr reproved;
          List.iter
            (fun (cp : F.cached_plan) ->
              match cp.F.certificate with
              | None -> ()
              | Some cert -> (
                Harness.check
                  (cp.F.stamped_at <= F.epoch svc)
                  "SERVICE stamp ahead of epoch at seed %d" seed;
                match
                  C.check_plan ~revalidate:true ~joins sys.System_gen.catalog
                    (F.base_policy svc) cp.F.plan cert
                with
                | [] -> ()
                | f :: _ ->
                  Harness.fail
                    "SERVICE cached plan fails re-proof at seed %d: %a" seed
                    C.pp_failure f))
            (F.cached_plans svc)
        end
        else begin
          (* Revoke storm: strip base rules one by one, re-drawing
             from the pool after each revocation. *)
          let storm = Rng.sample rng 2 (base_rules ()) in
          List.iter
            (fun a ->
              F.revoke svc a;
              F.revoke twin a;
              incr revokes;
              for _ = 1 to 3 do
                let k = Rng.zipf rng ~s:1.1 ~n:(List.length pool) in
                run_query "storm" (List.nth pool k)
              done)
            storm
        end;
        (* Bookkeeping invariants: epochs moved in lockstep, and a
           degraded run is impossible without fault injection. *)
        Harness.check
          (F.epoch svc = F.epoch twin)
          "SERVICE epoch drift at seed %d" seed;
        Harness.check
          ((F.stats svc).F.degraded = 0)
          "SERVICE spurious degraded count at seed %d" seed
      end
    end
  done;
  Fmt.pr
    "soak (service): %d cases, %d responses freshness-checked, %d revocations, \
     %d full cache re-proofs@."
    !total !served !revokes !reproved

(* ------------------------------------------------------------------ *)
(* Health slice.                                                       *)

(* The resilience differential (--health-cases, default 300): random
   replicated federations served with circuit breakers enabled, under
   repeated crash-injected queries against a chosen victim server.
   Checks: every [Ok] response — including those replanned around an
   open breaker's quarantine — still equals the centralized reference
   and carries a certificate that re-proves (revalidate mode) against
   the *base* policy as it stands now; shed and quota rejections are
   typed and leave the exact audit count unchanged; a blown deadline
   surfaces as the typed [Deadline_exceeded], never as a silent wrong
   answer; and no response is ever served by a currently-quarantined
   master. *)
let health_slice () =
  let module C = Analysis.Certificate in
  let module F = Federation in
  let total = ref 0
  and served = ref 0
  and rerouted = ref 0
  and shed_checked = ref 0
  and deadline_checked = ref 0 in
  let seed = ref 0 in
  while !total < !health_cases && !seed < 10 * !health_cases do
    incr seed;
    let seed = !seed in
    let rng = Rng.make ~seed:(600_000 + seed) in
    let topology = topology ~extra_edges:1 seed in
    let relations = 4 + (seed mod 2) in
    (* Heavy replication: quarantining a server must leave the planner
       a replica to reroute to, or the case degenerates to Infeasible
       (still typed, still checked, just less interesting). *)
    let sys =
      System_gen.generate ~replication:0.7 rng ~relations ~servers:relations
        ~extra:2 ~topology
    in
    let density = [| 0.5; 0.65; 0.8 |].(seed mod 3) in
    let policy = Authz_gen.generate rng ~density sys in
    if not (Authz.Policy.is_open policy) then begin
      let pool =
        List.filter_map
          (fun _ ->
            Option.map Query.to_string
              (Query_gen.generate rng ~where_prob:0.0
                 ~joins:(1 + (seed mod 2))
                 sys))
          (List.init 5 (fun i -> i))
        |> List.sort_uniq String.compare
      in
      let servers = System_gen.servers sys in
      if pool <> [] && List.length servers >= 2 then begin
        incr total;
        let joins = sys.System_gen.join_graph in
        let instances = Data_gen.instances rng ~rows:8 sys in
        let svc =
          F.create ~catalog:sys.System_gen.catalog ~policy ~close_under:joins
            ~cache_capacity:4
            ~health_config:
              (Distsim.Health.config ~failure_threshold:2 ~cooldown:6
                 ~window:8 ())
            ~instances:(fun r -> instances r)
            ()
        in
        let victim = Rng.choose rng servers in
        let victim_fault i =
          Distsim.Fault.make
            ~crashes:[ Distsim.Fault.crash victim ~at:1 ]
            ~max_retries:2
            ~seed:((600_000 + seed) * 31)
            ()
          |> fun p -> if i mod 2 = 0 then p else { p with max_retries = 1 }
        in
        let check_response what (r : F.response) =
          incr served;
          let reference = Distsim.Engine.centralized ~instances r.F.plan in
          Harness.check
            (Relation.equal r.F.result reference)
            "HEALTH WRONG RESULT at seed %d (%s)" seed what;
          (* No response may be served by a quarantined executor. *)
          let quarantined = F.quarantined_servers svc in
          let uses s = List.exists (Server.equal s) quarantined in
          List.iter
            (fun (_, (e : Planner.Assignment.executor)) ->
              let bad =
                uses e.Planner.Assignment.master
                || Option.fold ~none:false ~some:uses
                     e.Planner.Assignment.slave
                || Option.fold ~none:false ~some:uses
                     e.Planner.Assignment.coordinator
              in
              Harness.check (not bad)
                "HEALTH QUARANTINED EXECUTOR at seed %d (%s)" seed what)
            (Planner.Assignment.bindings r.F.assignment);
          match r.F.certificate with
          | None ->
            Harness.fail "HEALTH uncertified response at seed %d (%s)" seed
              what
          | Some cert -> (
            match
              C.check_plan ~revalidate:true ~joins sys.System_gen.catalog
                (F.base_policy svc) r.F.plan cert
            with
            | [] -> ()
            | f :: _ ->
              Harness.fail "HEALTH STALE/UNSAFE plan at seed %d (%s): %a" seed
                what C.pp_failure f)
        in
        (* Crash-injected stream: repeated victim crashes trip the
           breaker; later queries plan around the quarantine. *)
        for i = 1 to 8 do
          let sql = List.nth pool (Rng.zipf rng ~s:1.1 ~n:(List.length pool)) in
          let before_quarantine = F.quarantined_servers svc <> [] in
          match F.query ~fault:(victim_fault i) svc sql with
          | Ok r ->
            if before_quarantine then incr rerouted;
            check_response
              (if before_quarantine then "rerouted" else "stream")
              r
          | Error (F.Degraded _ | F.Infeasible _ | F.Deadline_exceeded _) ->
            () (* typed degradation is the contract, not a failure *)
          | Error (F.Rejected _) ->
            Harness.fail "HEALTH spurious rejection at seed %d" seed
          | Error e ->
            Harness.fail "HEALTH unexpected error at seed %d: %a" seed
              F.pp_error e
        done;
        (* Breaker accounting must be visible in stats. *)
        Harness.check
          ((F.stats svc).F.quarantined
          = List.length (F.quarantined_servers svc))
          "HEALTH stats/quarantine drift at seed %d" seed;
        (* Shed and quota rejections: typed, and the rejected call
           leaves the audit count unchanged (nothing was planned,
           nothing was emitted). The first probe burns the burst token — its
           outcome may be anything the planner says under quarantine. *)
        incr shed_checked;
        F.set_admission svc ~rate:0.0 ~burst:1.0;
        ignore (F.query svc (List.hd pool));
        let audit_before = F.audited svc in
        (match F.query svc (List.hd pool) with
         | Error (F.Rejected { reason = F.Overload }) -> ()
         | _ -> Harness.fail "HEALTH admission failed to shed at seed %d" seed);
        Harness.check
          (F.audited svc = audit_before)
          "HEALTH shed request reached the audit log at seed %d" seed;
        F.clear_admission svc;
        F.set_quota svc "soak-tenant" ~rate:0.0 ~burst:1.0;
        ignore (F.query ~tenant:"soak-tenant" svc (List.hd pool));
        let audit_before = F.audited svc in
        (match F.query ~tenant:"soak-tenant" svc (List.hd pool) with
         | Error (F.Rejected { reason = F.Quota { tenant } })
           when tenant = "soak-tenant" ->
           ()
         | _ -> Harness.fail "HEALTH quota failed to reject at seed %d" seed);
        Harness.check
          (F.audited svc = audit_before)
          "HEALTH quota-rejected request reached the audit log at seed %d" seed;
        F.clear_quota svc "soak-tenant";
        (* A 1-step deadline on a multi-node plan must blow, typed. *)
        incr deadline_checked;
        (match F.query ~deadline:1 svc (List.hd pool) with
         | Ok r when r.F.steps <= 1 -> ()
         | Ok _ ->
           Harness.fail "HEALTH over-budget response served at seed %d" seed
         | Error (F.Deadline_exceeded { spent; budget }) ->
           Harness.check (spent > budget)
             "HEALTH deadline miss without overspend at seed %d" seed
         | Error (F.Infeasible _ | F.Degraded _) -> ()
         | Error e ->
           Harness.fail "HEALTH unexpected deadline-path error at seed %d: %a"
             seed F.pp_error e)
      end
    end
  done;
  Fmt.pr
    "soak (health): %d cases, %d responses checked (%d rerouted past a \
     quarantine), %d shed/quota probes, %d deadline probes@."
    !total !served !rerouted !shed_checked !deadline_checked

let () =
  Harness.parse_argv ~prog:"soak"
    [
      Harness.Count ("--cases", cases);
      Harness.Count ("--fault-cases", fault_cases);
      Harness.Count ("--knowledge-cases", knowledge_cases);
      Harness.Count ("--certify-cases", certify_cases);
      Harness.Count ("--service-cases", service_cases);
      Harness.Count ("--health-cases", health_cases);
      Harness.Count ("--exec-cases", exec_cases);
    ];
  exit
    (Harness.run ~prog:"soak"
       [
         ("clean", clean_slice);
         ("exec", exec_slice);
         ("fault", fault_slice);
         ("knowledge", knowledge_slice);
         ("certify", certify_slice);
         ("service", service_slice);
         ("health", health_slice);
       ])
