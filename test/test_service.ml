(* The multi-tenant service layer: canonical plan-cache keys, LRU
   bounds, policy epochs, and grant/revoke with incremental
   re-validation. The differential test interleaves policy churn with
   queries and holds the cached federation to the plan-per-call twin,
   re-proving every served certificate against the base policy as it
   stands at serve time — a cached plan must never outlive the rule it
   was proved under. *)

open Relalg
module M = Scenario.Medical
module C = Analysis.Certificate
module F = Federation

let c = Alcotest.test_case
let check = Alcotest.check

let medical ?close_under ?cache_capacity () =
  F.create ~catalog:M.catalog ~policy:M.policy ?close_under ?cache_capacity
    ~instances:M.instances ()

let q_ins = "SELECT Holder, Plan FROM Insurance"
let q_dis = "SELECT Illness, Treatment FROM Disease_list"
let q_hos = "SELECT Patient, Disease, Physician FROM Hospital"

(* Figure-3 rules the churn tests add and remove. *)
let rule_insurance = List.nth M.authorizations 0 (* [Holder,Plan] -> S_I *)
let rule_registry = List.nth M.authorizations 7 (* [Citizen,HealthAid] -> S_N *)
let rule_disease = List.nth M.authorizations 14 (* [Illness,Treatment] -> S_D *)

let serve fed sql =
  match F.query fed sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %a" sql F.pp_error e

let test_canonical_key () =
  let fed = medical () in
  let r1 = serve fed M.example_query_sql in
  check Alcotest.bool "first is a miss" false r1.F.from_cache;
  (* Same query, different spelling: lowercase keywords, shuffled
     select list, noisy whitespace. *)
  let variant =
    "select  HealthAid, Plan, Physician,Patient from Insurance join \
     Nat_registry on Holder=Citizen   join Hospital on Citizen=Patient"
  in
  let r2 = serve fed variant in
  check Alcotest.bool "variant spelling hits" true r2.F.from_cache;
  check Alcotest.bool "same result" true
    (Relation.equal r1.F.result r2.F.result);
  (* WHERE conjunct order is part of canonicalization too. *)
  let w1 =
    Sql_parser.parse_exn M.catalog
      "SELECT Patient FROM Hospital WHERE Disease = 'flu' AND Physician <> \
       NULL"
  and w2 =
    Sql_parser.parse_exn M.catalog
      "SELECT Patient FROM Hospital WHERE Physician <> NULL AND Disease = \
       'flu'"
  in
  check Alcotest.string "conjunct order canonicalizes" (Query.canonical w1)
    (Query.canonical w2);
  let s = F.stats fed in
  check Alcotest.int "one hit" 1 s.F.cache_hits;
  check Alcotest.int "one entry" 1 (List.length (F.cached_plans fed))

let test_lru_eviction () =
  let fed = medical ~cache_capacity:2 () in
  ignore (serve fed q_ins);
  ignore (serve fed q_dis);
  check Alcotest.int "no eviction yet" 0 (F.stats fed).F.evictions;
  ignore (serve fed q_hos);
  let s = F.stats fed in
  check Alcotest.int "one eviction" 1 s.F.evictions;
  check Alcotest.int "cache stays bounded" 2 (List.length (F.cached_plans fed));
  (* q_ins was least recently used; it must re-plan. *)
  check Alcotest.bool "victim re-plans" false (serve fed q_ins).F.from_cache;
  (* q_dis was refreshed... no: serving q_ins just evicted q_dis (the
     new LRU). q_hos is still warm. *)
  check Alcotest.bool "warm entry survives" true (serve fed q_hos).F.from_cache

let test_capacity_zero_disables () =
  let fed = medical ~cache_capacity:0 () in
  ignore (serve fed q_ins);
  check Alcotest.bool "never cached" false (serve fed q_ins).F.from_cache;
  check Alcotest.int "no entries" 0 (List.length (F.cached_plans fed));
  check Alcotest.int "no hits" 0 (F.stats fed).F.cache_hits;
  match F.create ~catalog:M.catalog ~policy:M.policy ~cache_capacity:(-1)
          ~instances:M.instances ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity accepted"

let test_epoch_monotonic () =
  let fed = medical () in
  check Alcotest.int "epoch starts at 0" 0 (F.epoch fed);
  let extra =
    Authz.Authorization.make_exn
      ~attrs:(Attribute.Set.of_list [ M.attr "Illness"; M.attr "Treatment" ])
      ~path:Joinpath.empty M.s_n
  in
  F.grant fed extra;
  check Alcotest.int "grant bumps" 1 (F.epoch fed);
  F.revoke fed extra;
  check Alcotest.int "revoke bumps" 2 (F.epoch fed);
  F.grant fed extra;
  check Alcotest.int "re-grant bumps" 3 (F.epoch fed);
  check Alcotest.int "stats agree" 3 (F.stats fed).F.epoch;
  (* Open-mode policies have no epochs. *)
  let open_fed =
    F.create ~catalog:M.catalog ~policy:(Authz.Policy.open_policy [])
      ~instances:M.instances ()
  in
  (match F.grant open_fed extra with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "grant on an open policy accepted");
  match F.revoke open_fed extra with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "revoke on an open policy accepted"

let test_grant_keeps_plans () =
  let fed = medical ~close_under:M.join_graph () in
  ignore (serve fed M.example_query_sql);
  let extra =
    Authz.Authorization.make_exn
      ~attrs:(Attribute.Set.of_list [ M.attr "Illness"; M.attr "Treatment" ])
      ~path:Joinpath.empty M.s_n
  in
  F.grant fed extra;
  let r = serve fed M.example_query_sql in
  check Alcotest.bool "cached plan survives a grant" true r.F.from_cache;
  check Alcotest.int "nothing invalidated" 0 (F.stats fed).F.invalidations;
  (* The lazy re-stamp happened at that lookup. *)
  List.iter
    (fun (p : F.cached_plan) ->
      check Alcotest.int "re-stamped to the current epoch" (F.epoch fed)
        p.F.stamped_at)
    (F.cached_plans fed)

let test_revoke_invalidates_exactly () =
  let fed = medical ~close_under:M.join_graph () in
  let ra = serve fed M.example_query_sql in
  ignore (serve fed q_dis);
  check Alcotest.int "two entries" 2 (List.length (F.cached_plans fed));
  (* Revoke a base rule the join plan's certificate actually cites; the
     flow-free Disease_list plan cites no rules (safety is a property
     of inter-server flows, and it performs none), so it must
     survive. *)
  let cited =
    match ra.F.certificate with
    | None -> Alcotest.fail "join plan served without a certificate"
    | Some cert -> C.rule_ids cert
  in
  let dead =
    match
      List.find_opt
        (fun (a : Authz.Authorization.t) -> List.mem a.id cited)
        M.authorizations
    with
    | Some a -> a
    | None -> Alcotest.fail "certificate cites no Figure-3 base rule"
  in
  F.revoke fed dead;
  let s = F.stats fed in
  check Alcotest.int "exactly the citing plan invalidated" 1 s.F.invalidations;
  check Alcotest.int "the flow-free plan stays" 1
    (List.length (F.cached_plans fed));
  check Alcotest.bool "the flow-free plan still serves from cache" true
    (serve fed q_dis).F.from_cache;
  (* The join query must not be served from the dropped entry: either
     the planner finds a route avoiding the revoked rule, or it is
     honestly infeasible. *)
  (match F.query fed M.example_query_sql with
   | Ok r -> check Alcotest.bool "re-planned, not stale" false r.F.from_cache
   | Error (F.Infeasible _) -> ()
   | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e);
  F.grant fed dead;
  let r = serve fed M.example_query_sql in
  check Alcotest.bool "same answer as before the churn" true
    (Relation.equal ra.F.result r.F.result);
  (* A rule the base does not grant — here a chase-derived rule that a
     cached certificate cites — revokes nothing: neither the base nor
     the closure changes, so no entry is invalidated. *)
  let open Workload in
  let rng = Rng.make ~seed:1 in
  let sys =
    System_gen.generate rng ~relations:6 ~servers:6 ~extra:2
      ~topology:System_gen.Chain
  in
  let policy =
    Authz_gen.generate rng ~max_path:2 ~attr_keep:1.0 ~density:0.8 sys
  in
  let chain =
    F.create ~catalog:sys.System_gen.catalog ~policy
      ~close_under:sys.System_gen.join_graph
      ~instances:(Data_gen.instances rng ~rows:3 sys) ()
  in
  let rec cites_derived tries =
    if tries = 0 then Alcotest.fail "no certificate cites a derived rule"
    else
      match Query_gen.generate rng ~joins:2 sys with
      | None -> cites_derived (tries - 1)
      | Some q -> (
        let sql = Query.to_string q in
        match F.query chain sql with
        | Ok { F.certificate = Some cert; _ } -> (
          match
            List.find_opt (fun (r : C.rule) -> r.C.just <> C.Granted) cert.C.rules
          with
          | Some r -> (sql, r.C.auth)
          | None -> cites_derived (tries - 1))
        | _ -> cites_derived (tries - 1))
  in
  let sql, derived = cites_derived 50 in
  let cached = List.length (F.cached_plans chain) in
  let base = F.base_policy chain and epoch = F.epoch chain in
  F.revoke chain derived;
  check Alcotest.int "revoking a derived rule invalidates nothing" 0
    (F.stats chain).F.invalidations;
  check Alcotest.int "every plan stays cached" cached
    (List.length (F.cached_plans chain));
  check Alcotest.bool "the base is unchanged" true (F.base_policy chain == base);
  check Alcotest.int "the epoch still moves" (epoch + 1) (F.epoch chain);
  check Alcotest.bool "the citing plan still serves from cache" true
    (serve chain sql).F.from_cache

(* A miss caches only a plan that compiles: without a Hospital
   instance the certified plan is refused before any message, and
   nothing is left in the cache to be served later. *)
let test_uncompiled_miss_caches_nothing () =
  let instances name = if name = "Hospital" then None else M.instances name in
  let fed = F.create ~catalog:M.catalog ~policy:M.policy ~instances () in
  let refused () =
    match F.query fed M.example_query_sql with
    | Error (F.Execution_error msg) -> msg
    | Ok _ -> Alcotest.fail "answered without a Hospital instance"
    | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e
  in
  let missing = {|no instance for base relation "Hospital"|} in
  check Alcotest.string "the miss names the relation" missing (refused ());
  check Alcotest.int "nothing cached" 0 (List.length (F.cached_plans fed));
  check Alcotest.string "the retry is a miss again" missing (refused ());
  check Alcotest.int "still nothing cached" 0
    (List.length (F.cached_plans fed));
  let s = F.stats fed in
  check Alcotest.int "nothing served" 0 s.F.queries_served;
  check Alcotest.int "no hit" 0 s.F.cache_hits;
  check Alcotest.int "nothing audited" 0 (F.audited fed)

(* A hit runs the program compiled at its miss and is never compiled
   again: a leaf instance whose header order changed after the miss is
   refused by the first hit, and the entry stays cached. *)
let test_hit_runs_the_miss_program () =
  let hospital = Option.get (M.instances "Hospital") in
  let current = ref hospital in
  let instances name =
    if name = "Hospital" then Some !current else M.instances name
  in
  let fed = F.create ~catalog:M.catalog ~policy:M.policy ~instances () in
  check Alcotest.bool "the miss" false
    (serve fed M.example_query_sql).F.from_cache;
  current :=
    Relation.of_arrays
      (List.rev (Relation.header hospital))
      (Array.map
         (fun row -> Array.of_list (List.rev (Array.to_list row)))
         (Relation.rows hospital));
  (match F.query fed M.example_query_sql with
   | Error (F.Execution_error msg) ->
     check Alcotest.string "the first hit refuses the reordered instance"
       {|the instance of "Hospital" no longer has the header it was compiled for|}
       msg
   | Ok _ -> Alcotest.fail "the first hit compiled the plan again"
   | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e);
  check Alcotest.int "the plan stays cached" 1
    (List.length (F.cached_plans fed));
  current := hospital;
  let r = serve fed M.example_query_sql in
  check Alcotest.bool "the compiled header serves again" true r.F.from_cache;
  check Alcotest.int "one hit" 1 (F.stats fed).F.cache_hits

(* Interleaved grant/revoke/query churn, differential against the
   plan-per-call twin. Every served response re-proves its certificate
   against the base policy at serve time: zero tolerance for a stale
   plan reaching execution. *)
let test_churn_differential () =
  let svc = medical ~close_under:M.join_graph ~cache_capacity:3 () in
  let twin = medical ~close_under:M.join_graph ~cache_capacity:0 () in
  let pool = [ M.example_query_sql; q_ins; q_dis; q_hos ] in
  let check_fresh sql (r : F.response) =
    match r.F.certificate with
    | None -> Alcotest.failf "%s: served without a certificate" sql
    | Some cert ->
      (match
         C.check_plan ~revalidate:true ~joins:(F.join_graph svc)
           (F.catalog svc) (F.base_policy svc) r.F.plan cert
       with
       | [] -> ()
       | f :: _ ->
         Alcotest.failf "%s: stale plan executed: %a" sql C.pp_failure f)
  in
  let serve_pool () =
    List.iter
      (fun sql ->
        match (F.query svc sql, F.query twin sql) with
        | Ok a, Ok b ->
          check_fresh sql a;
          check Alcotest.bool (sql ^ ": results agree") true
            (Relation.equal a.F.result b.F.result)
        | Error (F.Infeasible _), Error (F.Infeasible _) -> ()
        | Ok _, Error e ->
          Alcotest.failf "%s: twin failed: %a" sql F.pp_error e
        | Error e, Ok _ ->
          Alcotest.failf "%s: cached failed: %a" sql F.pp_error e
        | Error a, Error b ->
          Alcotest.failf "%s: differing errors: %a / %a" sql F.pp_error a
            F.pp_error b)
      pool
  in
  let both f = f svc; f twin in
  serve_pool ();
  both (fun fed -> F.revoke fed rule_disease);
  serve_pool ();
  both (fun fed -> F.grant fed rule_disease);
  serve_pool ();
  both (fun fed -> F.revoke fed rule_insurance);
  serve_pool ();
  both (fun fed -> F.revoke fed rule_registry);
  serve_pool ();
  both (fun fed -> F.grant fed rule_insurance);
  both (fun fed -> F.grant fed rule_registry);
  serve_pool ();
  check Alcotest.int "epochs march in step" (F.epoch svc) (F.epoch twin);
  (* Final sweep: every plan still cached must re-prove wholesale. *)
  List.iter
    (fun (p : F.cached_plan) ->
      check Alcotest.bool (p.F.key ^ ": stamped within the epoch") true
        (p.F.stamped_at <= F.epoch svc);
      match p.F.certificate with
      | None -> Alcotest.failf "%s: cached without a certificate" p.F.key
      | Some cert ->
        check Alcotest.int (p.F.key ^ ": proof replays") 0
          (List.length
             (C.check_plan ~revalidate:true ~joins:(F.join_graph svc)
                (F.catalog svc) (F.base_policy svc) p.F.plan cert)))
    (F.cached_plans svc)

(* The stats contract: [cache_hits] counts served responses only, a
   degraded run counts as [degraded] (not served), and the audit log
   carries one entry per admitted message. *)
let test_stats_consistency () =
  let fed = medical () in
  ignore (serve fed M.example_query_sql);
  let s = F.stats fed in
  check Alcotest.int "audit count mirrors message counters" s.F.total_messages
    (F.audited fed);
  (* The second call finds the cached plan, but the fault kills the
     only copy of Insurance: the response is withheld, so the hit must
     NOT be counted. *)
  let fault =
    Distsim.Fault.make ~crashes:[ Distsim.Fault.crash M.s_i ~at:0 ] ~seed:1 ()
  in
  (match F.query ~fault fed M.example_query_sql with
   | Error (F.Degraded _) -> ()
   | Ok _ -> Alcotest.fail "answered without the only copy of Insurance"
   | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e);
  let s = F.stats fed in
  check Alcotest.int "degraded counted" 1 s.F.degraded;
  check Alcotest.int "not served" 1 s.F.queries_served;
  check Alcotest.int "no phantom hit" 0 s.F.cache_hits;
  (* A served retry afterwards is a genuine hit. *)
  ignore (serve fed M.example_query_sql);
  let s = F.stats fed in
  check Alcotest.int "served retry counts" 2 s.F.queries_served;
  check Alcotest.int "hit counted on service" 1 s.F.cache_hits

let suite =
  [
    c "canonical cache key" `Quick test_canonical_key;
    c "LRU eviction under capacity" `Quick test_lru_eviction;
    c "capacity zero disables caching" `Quick test_capacity_zero_disables;
    c "epoch monotonicity" `Quick test_epoch_monotonic;
    c "grants keep cached plans" `Quick test_grant_keeps_plans;
    c "revoke invalidates exactly the citing plans" `Quick
      test_revoke_invalidates_exactly;
    c "a miss that does not compile caches nothing" `Quick
      test_uncompiled_miss_caches_nothing;
    c "a hit runs the program compiled at its miss" `Quick
      test_hit_runs_the_miss_program;
    c "grant/revoke churn differential" `Quick test_churn_differential;
    c "stats consistency" `Quick test_stats_consistency;
  ]
