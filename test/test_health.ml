(* Service-level resilience: backoff ceilings, circuit breakers,
   deadlines at every layer, admission control, quotas, and
   quarantine-aware replanning through the federation facade. *)

open Relalg
module M = Scenario.Medical
module F = Federation
module H = Distsim.Health

let c = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Fault: cumulative backoff ceiling (satellite: clamped retries).     *)

let test_backoff_clamped_at_ceiling () =
  let plan =
    Distsim.Fault.make ~backoff_base:1.0 ~backoff_factor:2.0
      ~backoff_ceiling:3.0 ~seed:1 ()
  in
  let t = Distsim.Fault.start plan in
  check (Alcotest.float 1e-9) "first wait uncut" 1.0
    (Distsim.Fault.wait t ~attempt:1);
  check (Alcotest.float 1e-9) "second wait uncut" 2.0
    (Distsim.Fault.wait t ~attempt:2);
  (* Raw delay would be 4.0; the cumulative ceiling leaves zero. *)
  check (Alcotest.float 1e-9) "third wait clamped to zero" 0.0
    (Distsim.Fault.wait t ~attempt:3);
  check (Alcotest.float 1e-9) "total delay capped" 3.0
    (Distsim.Fault.total_delay t);
  let clamped_flags =
    List.filter_map
      (function
        | Distsim.Fault.Waited { clamped; _ } -> Some clamped
        | _ -> None)
      (Distsim.Fault.events t)
  in
  check
    Alcotest.(list bool)
    "only the last wait is flagged"
    [ false; false; true ]
    clamped_flags;
  let last = List.nth (Distsim.Fault.events t) 2 in
  check Alcotest.bool "the clamp is surfaced in the schedule" true
    (Helpers.contains ~sub:"clamped at ceiling"
       (Fmt.str "%a" Distsim.Fault.pp_event last))

let test_backoff_ceiling_validated () =
  match Distsim.Fault.make ~backoff_ceiling:0.0 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive ceiling accepted"

(* ------------------------------------------------------------------ *)
(* Health: the breaker state machine.                                  *)

let sx = Server.make "SX"

let test_breaker_trips_on_consecutive_failures () =
  let h = H.create ~config:(H.config ~failure_threshold:2 ~cooldown:5 ()) () in
  check Alcotest.bool "unobserved servers are closed" true
    (H.state h ~now:0 sx = H.Closed);
  H.record_failure h ~now:1 sx;
  check Alcotest.bool "one failure is below threshold" true
    (H.state h ~now:1 sx = H.Closed);
  H.record_failure h ~now:1 sx;
  (match H.state h ~now:1 sx with
   | H.Open { until } -> check Alcotest.int "cooldown from trip tick" 6 until
   | _ -> Alcotest.fail "breaker did not trip");
  check Alcotest.int "one trip counted" 1 (H.breaker_opens h);
  check
    Alcotest.(list string)
    "quarantined while open" [ "SX" ]
    (List.map Server.name (H.quarantined h ~now:1))

let test_breaker_success_resets_count () =
  let h = H.create ~config:(H.config ~failure_threshold:2 ~cooldown:5 ()) () in
  H.record_failure h ~now:1 sx;
  H.record_success h ~now:1 sx;
  H.record_failure h ~now:2 sx;
  check Alcotest.bool "interleaved success resets the streak" true
    (H.state h ~now:2 sx = H.Closed)

let test_breaker_half_open_probe () =
  let h = H.create ~config:(H.config ~failure_threshold:1 ~cooldown:3 ()) () in
  H.record_failure h ~now:0 sx;
  check Alcotest.bool "open before expiry" true
    (match H.state h ~now:2 sx with H.Open _ -> true | _ -> false);
  check Alcotest.bool "half-open at expiry" true
    (H.state h ~now:3 sx = H.Half_open);
  check
    Alcotest.(list string)
    "half-open is admissible" []
    (List.map Server.name (H.quarantined h ~now:3));
  (* A successful probe closes it for good... *)
  H.record_success h ~now:4 sx;
  check Alcotest.bool "probe success re-admits" true
    (H.state h ~now:4 sx = H.Closed);
  (* ...and a failed probe re-opens immediately, below the threshold. *)
  H.record_failure h ~now:5 sx;
  check Alcotest.bool "tripped again" true
    (match H.state h ~now:5 sx with H.Open _ -> true | _ -> false);
  check Alcotest.int "second trip counted" 2 (H.breaker_opens h)

let test_health_report () =
  let h = H.create () in
  H.record_failure h ~now:1 sx;
  H.record_success h ~now:2 sx;
  match H.report h ~now:3 with
  | [ s ] ->
    check Helpers.server "subject" sx s.H.subject;
    check Alcotest.int "one success" 1 s.H.ok;
    check Alcotest.int "one failure" 1 s.H.failed
  | l -> Alcotest.failf "expected one snapshot, got %d" (List.length l)

(* The breaker's outcome ring against a list model: after every
   outcome, [recent_failures] counts the failures among the last
   [window] outcomes. *)
let prop_recent_failures_window =
  QCheck.Test.make ~count:300 ~name:"recent_failures = list model"
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(0 -- 60) bool))
    (fun (window, outcomes) ->
      let h = H.create ~config:(H.config ~window ()) () in
      let rec last n = function
        | x :: rest when n > 0 -> x :: last (n - 1) rest
        | _ -> []
      in
      let model = ref [] in
      List.for_all
        (fun ok ->
          let now = List.length !model + 1 in
          if ok then H.record_success h ~now sx else H.record_failure h ~now sx;
          model := ok :: !model;
          let expected =
            List.length (List.filter not (last window !model))
          in
          match H.report h ~now with
          | [ s ] -> s.H.recent_failures = expected
          | _ -> false)
        outcomes)

let test_health_config_validated () =
  match H.config ~failure_threshold:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive threshold accepted"

(* ------------------------------------------------------------------ *)
(* Workload: token buckets.                                            *)

let test_bucket_drains_and_refills () =
  let b = Workload.Bucket.create ~rate:0.5 ~burst:2.0 in
  check Alcotest.bool "starts full" true (Workload.Bucket.try_take b ~now:0);
  check Alcotest.bool "burst of two" true (Workload.Bucket.try_take b ~now:0);
  check Alcotest.bool "then dry" false (Workload.Bucket.try_take b ~now:0);
  (* Two ticks at 0.5/tick refill one token. *)
  check Alcotest.bool "refilled" true (Workload.Bucket.try_take b ~now:2);
  check Alcotest.bool "but only one" false (Workload.Bucket.try_take b ~now:2)

let test_bucket_validated () =
  (match Workload.Bucket.create ~rate:(-1.0) ~burst:1.0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative rate accepted");
  match Workload.Bucket.create ~rate:1.0 ~burst:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive burst accepted"

(* ------------------------------------------------------------------ *)
(* Deadlines at the three layers.                                      *)

let planned plan =
  match Planner.Safe_planner.plan M.catalog M.policy plan with
  | Ok r -> r.Planner.Safe_planner.assignment
  | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f

let test_engine_deadline () =
  let plan = M.example_plan () in
  let assignment = planned plan in
  (match
     Distsim.Engine.execute ~deadline:10_000 M.catalog ~instances:M.instances
       plan assignment
   with
   | Ok o ->
     check Alcotest.bool "steps are charged" true (o.Distsim.Engine.steps > 0)
   | Error e -> Alcotest.failf "ample budget blown: %a" Distsim.Engine.pp_error e);
  match
    Distsim.Engine.execute ~deadline:1 M.catalog ~instances:M.instances plan
      assignment
  with
  | Error (Distsim.Engine.Deadline_exceeded { spent; budget; _ }) ->
    check Alcotest.int "budget echoed" 1 budget;
    check Alcotest.bool "overspent" true (spent > budget)
  | Ok _ -> Alcotest.fail "one step cannot execute a three-join plan"
  | Error e -> Alcotest.failf "wrong error: %a" Distsim.Engine.pp_error e

let test_recover_deadline () =
  let plan = M.example_plan () in
  let fault =
    Distsim.Fault.make ~crashes:[ Distsim.Fault.crash M.s_n ~at:0 ] ~seed:1 ()
  in
  match
    Distsim.Recover.execute ~deadline:1 M.catalog M.policy
      ~instances:M.instances ~fault plan
  with
  | Error { reason = Distsim.Recover.Deadline_exceeded { spent; budget }; _ }
    ->
    check Alcotest.int "budget echoed" 1 budget;
    check Alcotest.bool "overspent" true (spent > budget)
  | Ok _ -> Alcotest.fail "one step cannot absorb a crash"
  | Error d ->
    Alcotest.failf "wrong reason: %a" Distsim.Recover.pp_reason
      d.Distsim.Recover.reason

let medical () =
  F.create ~catalog:M.catalog ~policy:M.policy ~instances:M.instances ()

let test_federation_deadline () =
  let fed = medical () in
  (match F.query ~deadline:1 fed M.example_query_sql with
   | Error (F.Deadline_exceeded { spent; budget }) ->
     check Alcotest.int "budget echoed" 1 budget;
     check Alcotest.bool "overspent" true (spent > budget)
   | Ok _ -> Alcotest.fail "served within one logical step"
   | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e);
  (match F.query ~deadline:10_000 fed M.example_query_sql with
   | Ok r -> check Alcotest.bool "steps surfaced" true (r.F.steps > 0)
   | Error e -> Alcotest.failf "ample budget blown: %a" F.pp_error e);
  let s = F.stats fed in
  check Alcotest.int "one deadline miss" 1 s.F.deadline_exceeded;
  check Alcotest.int "deadline misses are not degradations" 0 s.F.degraded;
  (* A miss audits what already left: the full operand for n2 crosses
     S_I -> S_N at step 4, and the next step blows a budget of 4. *)
  let missed = medical () in
  (match F.query ~deadline:4 missed M.example_query_sql with
   | Error (F.Deadline_exceeded { spent; budget }) ->
     check Alcotest.int "spent" 5 spent;
     check Alcotest.int "budget" 4 budget
   | Ok _ -> Alcotest.fail "served within four logical steps"
   | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e);
  check Alcotest.int "the one emission is audited" 1 (F.audited missed);
  check Alcotest.int "and retained" 1 (List.length (F.audit_log missed));
  match F.query ~deadline:0 fed M.example_query_sql with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive deadline accepted"

(* ------------------------------------------------------------------ *)
(* Admission control and per-tenant quotas.                            *)

let test_admission_sheds_typed () =
  let fed = medical () in
  F.set_admission fed ~rate:0.0 ~burst:1.0;
  (match F.query fed M.example_query_sql with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "burst token refused: %a" F.pp_error e);
  let audit_before = F.audited fed in
  (match F.query fed M.example_query_sql with
   | Error (F.Rejected { reason = F.Overload }) -> ()
   | Ok _ -> Alcotest.fail "admitted past an empty bucket"
   | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e);
  check Alcotest.int "shed request left no audit trace" audit_before
    (F.audited fed);
  let s = F.stats fed in
  check Alcotest.int "one shed" 1 s.F.shed;
  check Alcotest.int "one served" 1 s.F.queries_served;
  F.clear_admission fed;
  match F.query fed M.example_query_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cleared admission still shedding: %a" F.pp_error e

let test_tenant_quota () =
  let fed = medical () in
  F.set_quota fed "alice" ~rate:0.0 ~burst:1.0;
  (match F.query ~tenant:"alice" fed M.example_query_sql with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "burst token refused: %a" F.pp_error e);
  (match F.query ~tenant:"alice" fed M.example_query_sql with
   | Error (F.Rejected { reason = F.Quota { tenant } }) ->
     check Alcotest.string "names the tenant" "alice" tenant
   | Ok _ -> Alcotest.fail "admitted past an empty quota"
   | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e);
  (* Unknown tenants are unthrottled; so is the same tenant after
     clear_quota. *)
  (match F.query ~tenant:"bob" fed M.example_query_sql with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "unthrottled tenant refused: %a" F.pp_error e);
  F.clear_quota fed "alice";
  (match F.query ~tenant:"alice" fed M.example_query_sql with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "cleared quota still rejecting: %a" F.pp_error e);
  check Alcotest.int "one quota rejection" 1 (F.stats fed).F.quota_rejections

(* ------------------------------------------------------------------ *)
(* Quarantine-aware replanning through the facade.                     *)

(* Two servers, both relations replicated at both: the planner's first
   choice can die and the survivor still answers. *)
let replicated_fixture () =
  let sa = Server.make "SA" and sb = Server.make "SB" in
  let a = Schema.make "A" ~key:[ "Ax" ] [ "Ax"; "Adata" ] in
  let b = Schema.make "B" ~key:[ "Bx" ] [ "Bx"; "Bdata" ] in
  let catalog =
    let c = Catalog.of_list [ (a, sa); (b, sb) ] in
    let c = Helpers.check_ok Catalog.pp_error (Catalog.replicate c "A" ~at:sb) in
    Helpers.check_ok Catalog.pp_error (Catalog.replicate c "B" ~at:sa)
  in
  let str s = Value.String s in
  let instances =
    let table =
      [
        ("A", Relation.of_rows a [ [ str "x1"; str "a1" ] ]);
        ("B", Relation.of_rows b [ [ str "x1"; str "b1" ] ]);
      ]
    in
    fun name -> List.assoc_opt name table
  in
  (catalog, instances)

let crash_of victim =
  Distsim.Fault.make
    ~crashes:[ Distsim.Fault.crash victim ~at:0 ]
    ~seed:1 ()

let sql = "SELECT Adata, Bdata FROM A JOIN B ON Ax = Bx"

let test_breaker_quarantines_and_reroutes () =
  let catalog, instances = replicated_fixture () in
  let fed =
    F.create ~catalog ~policy:(Authz.Policy.open_policy []) ~instances
      ~health_config:(H.config ~failure_threshold:1 ~cooldown:100 ())
      ()
  in
  let victim =
    match F.query fed sql with
    | Ok r -> r.F.location
    | Error e -> Alcotest.failf "baseline failed: %a" F.pp_error e
  in
  (* One crash-injected query: recovered by failover, and the dead
     server's breaker trips. *)
  (match F.query ~fault:(crash_of victim) fed sql with
   | Ok r -> check Alcotest.int "one failover" 1 (List.length r.F.failovers)
   | Error e -> Alcotest.failf "not recovered: %a" F.pp_error e);
  check
    Alcotest.(list string)
    "victim quarantined"
    [ Server.name victim ]
    (List.map Server.name (F.quarantined_servers fed));
  let s = F.stats fed in
  check Alcotest.int "trip counted" 1 s.F.breaker_opens;
  check Alcotest.int "one quarantined" 1 s.F.quarantined;
  (* The next query — clean, no fault plan at all — must already plan
     around the quarantine: no failover, not served by the victim. *)
  match F.query fed sql with
  | Error e -> Alcotest.failf "quarantine made the query fail: %a" F.pp_error e
  | Ok r ->
    check Alcotest.bool "planned around the quarantine" false
      (Server.equal r.F.location victim);
    check Alcotest.int "no failover needed" 0 (List.length r.F.failovers)

let test_breaker_half_open_readmission () =
  let catalog, instances = replicated_fixture () in
  let fed =
    F.create ~catalog ~policy:(Authz.Policy.open_policy []) ~instances
      ~health_config:(H.config ~failure_threshold:1 ~cooldown:2 ())
      ()
  in
  let victim =
    match F.query fed sql with
    | Ok r -> r.F.location
    | Error e -> Alcotest.failf "baseline failed: %a" F.pp_error e
  in
  (match F.query ~fault:(crash_of victim) fed sql with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "not recovered: %a" F.pp_error e);
  check Alcotest.int "quarantined" 1
    (List.length (F.quarantined_servers fed));
  (* Burn request ticks past the cooldown; the breaker lapses to
     half-open and the server is admissible again. *)
  let _ = F.query fed sql in
  let _ = F.query fed sql in
  let _ = F.query fed sql in
  check Alcotest.int "re-admitted after cooldown" 0
    (List.length (F.quarantined_servers fed));
  (* A healthy (fault-free) query through the re-admitted server closes
     the breaker: no further quarantine without a new failure. *)
  match F.query fed sql with
  | Ok _ ->
    check Alcotest.int "still no quarantine" 0
      (List.length (F.quarantined_servers fed))
  | Error e -> Alcotest.failf "probe failed: %a" F.pp_error e

(* The quarantine gate checks a cached plan when it is looked up. A
   plan looked up while its server is quarantined is dropped, and
   counted as an invalidation; one that is not looked up until the
   breaker half-opens is served from the cache, never dropped. *)
let test_quarantine_checked_at_lookup () =
  let catalog, instances = replicated_fixture () in
  let fed ~cooldown =
    F.create ~catalog ~policy:(Authz.Policy.open_policy []) ~instances
      ~health_config:(H.config ~failure_threshold:1 ~cooldown ())
      ()
  in
  (* A miss, then a hit whose server dies: the failover answers, the
     breaker opens, and the cached plan still routes through the dead
     server. *)
  let quarantine_behind_cache fed =
    let victim =
      match F.query fed sql with
      | Ok r -> r.F.location
      | Error e -> Alcotest.failf "baseline failed: %a" F.pp_error e
    in
    (match F.query ~fault:(crash_of victim) fed sql with
     | Ok r -> check Alcotest.int "one failover" 1 (List.length r.F.failovers)
     | Error e -> Alcotest.failf "not recovered: %a" F.pp_error e);
    check Alcotest.int "victim quarantined" 1
      (List.length (F.quarantined_servers fed));
    check Alcotest.int "no invalidation yet" 0 (F.stats fed).F.invalidations;
    victim
  in
  let looked_up = fed ~cooldown:100 in
  let victim = quarantine_behind_cache looked_up in
  (match F.query looked_up sql with
   | Ok r ->
     check Alcotest.bool "replanned, not served from cache" false
       r.F.from_cache;
     check Alcotest.bool "around the quarantine" false
       (Server.equal r.F.location victim)
   | Error e -> Alcotest.failf "%a" F.pp_error e);
  check Alcotest.int "the quarantined plan was dropped" 1
    (F.stats looked_up).F.invalidations;
  check Alcotest.bool "the replan is cached in its place" true
    (match F.cached_plans looked_up with
     | [ p ] ->
       List.for_all
         (fun (_, (e : Planner.Assignment.executor)) ->
           not (Server.equal e.Planner.Assignment.master victim))
         (Planner.Assignment.bindings p.F.assignment)
     | _ -> false);
  let waited = fed ~cooldown:2 in
  let _ = quarantine_behind_cache waited in
  (* Other queries burn request ticks past the cooldown. *)
  for _ = 1 to 3 do
    ignore (F.query waited "SELECT Bdata FROM B")
  done;
  check Alcotest.int "half-open: nothing quarantined" 0
    (List.length (F.quarantined_servers waited));
  (match F.query waited sql with
   | Ok r -> check Alcotest.bool "served from the cache" true r.F.from_cache
   | Error e -> Alcotest.failf "%a" F.pp_error e);
  check Alcotest.int "never dropped" 0 (F.stats waited).F.invalidations

let test_breaker_disabled_never_quarantines () =
  let catalog, instances = replicated_fixture () in
  let fed =
    F.create ~catalog ~policy:(Authz.Policy.open_policy []) ~instances
      ~breaker:false ()
  in
  let victim =
    match F.query fed sql with
    | Ok r -> r.F.location
    | Error e -> Alcotest.failf "baseline failed: %a" F.pp_error e
  in
  (match F.query ~fault:(crash_of victim) fed sql with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "not recovered: %a" F.pp_error e);
  check Alcotest.bool "breaker off" false (F.breaker_enabled fed);
  check Alcotest.int "nothing quarantined" 0
    (List.length (F.quarantined_servers fed));
  check Alcotest.int "no trips" 0 (F.stats fed).F.breaker_opens

(* Satellite: cache_hits and failover accounting stay disjoint — a
   cached plan that needed a failover replan is NOT a cache hit. *)
let test_cache_hit_failover_disjoint () =
  let catalog, instances = replicated_fixture () in
  let fed =
    F.create ~catalog ~policy:(Authz.Policy.open_policy []) ~instances
      ~breaker:false ()
  in
  let victim =
    match F.query fed sql with
    | Ok r -> r.F.location
    | Error e -> Alcotest.failf "baseline failed: %a" F.pp_error e
  in
  (match F.query fed sql with
   | Ok r -> check Alcotest.bool "clean repeat is a hit" true r.F.from_cache
   | Error e -> Alcotest.failf "%a" F.pp_error e);
  check Alcotest.int "one hit so far" 1 (F.stats fed).F.cache_hits;
  (match F.query ~fault:(crash_of victim) fed sql with
   | Ok r ->
     check Alcotest.bool "failover answer is not a cache hit" false
       r.F.from_cache;
     check Alcotest.int "one failover" 1 (List.length r.F.failovers)
   | Error e -> Alcotest.failf "not recovered: %a" F.pp_error e);
  let s = F.stats fed in
  check Alcotest.int "hits unchanged by the failover" 1 s.F.cache_hits;
  check Alcotest.int "not degraded either" 0 s.F.degraded;
  check Alcotest.int "all three served" 3 s.F.queries_served

let suite =
  [
    c "fault: backoff clamped at the ceiling" `Quick
      test_backoff_clamped_at_ceiling;
    c "fault: ceiling validated" `Quick test_backoff_ceiling_validated;
    c "breaker trips on consecutive failures" `Quick
      test_breaker_trips_on_consecutive_failures;
    c "breaker: success resets the streak" `Quick
      test_breaker_success_resets_count;
    c "breaker: half-open probe" `Quick test_breaker_half_open_probe;
    c "health report" `Quick test_health_report;
    c "health config validated" `Quick test_health_config_validated;
    Helpers.qcheck prop_recent_failures_window;
    c "bucket drains and refills" `Quick test_bucket_drains_and_refills;
    c "bucket validated" `Quick test_bucket_validated;
    c "engine deadline" `Quick test_engine_deadline;
    c "recover deadline" `Quick test_recover_deadline;
    c "federation deadline" `Quick test_federation_deadline;
    c "admission sheds typed" `Quick test_admission_sheds_typed;
    c "tenant quota" `Quick test_tenant_quota;
    c "breaker quarantines and reroutes" `Quick
      test_breaker_quarantines_and_reroutes;
    c "breaker half-open re-admission" `Quick
      test_breaker_half_open_readmission;
    c "quarantine checked when a plan is looked up" `Quick
      test_quarantine_checked_at_lookup;
    c "breaker disabled never quarantines" `Quick
      test_breaker_disabled_never_quarantines;
    c "cache hits disjoint from failovers" `Quick
      test_cache_hit_failover_disjoint;
  ]
