open Relalg
module M = Scenario.Medical
module SC = Scenario.Supply_chain
module R = Scenario.Research

let c = Alcotest.test_case
let check = Alcotest.check

let medical () =
  Federation.create ~catalog:M.catalog ~policy:M.policy
    ~instances:M.instances ()

let test_query_end_to_end () =
  let fed = medical () in
  match Federation.query fed M.example_query_sql with
  | Error e -> Alcotest.failf "%a" Federation.pp_error e
  | Ok r ->
    check Alcotest.int "three answers" 3 (Relation.cardinality r.result);
    check Helpers.server "at S_H" M.s_h r.location;
    check Alcotest.int "three messages" 3 r.messages;
    check Alcotest.bool "fresh plan" false r.from_cache;
    check Alcotest.int "no rescues" 0 (List.length r.rescues)

let test_plan_cache () =
  let fed = medical () in
  let _ = Federation.query fed M.example_query_sql in
  match Federation.query fed M.example_query_sql with
  | Error e -> Alcotest.failf "%a" Federation.pp_error e
  | Ok r ->
    check Alcotest.bool "cached" true r.from_cache;
    let s = Federation.stats fed in
    check Alcotest.int "two served" 2 s.Federation.queries_served;
    check Alcotest.int "one hit" 1 s.Federation.cache_hits

let serve_n fed n =
  for _ = 1 to n do
    match Federation.query fed M.example_query_sql with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%a" Federation.pp_error e
  done

let test_audit_log_accumulates () =
  let fed = medical () in
  serve_n fed 2;
  (* 3 flows per execution. *)
  check Alcotest.int "six entries" 6 (List.length (Federation.audit_log fed));
  List.iter
    (fun (e : Distsim.Audit.entry) ->
      check Alcotest.bool "every entry cites a rule" true
        (e.admitted_by <> None))
    (Federation.audit_log fed);
  (* Overflow the window: it keeps the last [audit_window] flows, oldest
     first, and [audited] still counts every one. *)
  let fed = medical () in
  let queries = (Federation.audit_window / 3) + 10 in
  serve_n fed queries;
  let log = Federation.audit_log fed in
  check Alcotest.int "the window is full" Federation.audit_window
    (List.length log);
  check Alcotest.int "every flow counted" (3 * queries) (Federation.audited fed);
  let rec ordered = function
    | (a : Distsim.Audit.entry) :: (b :: _ as rest) ->
      (a.request < b.request || (a.request = b.request && a.seq < b.seq))
      && ordered rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "oldest first" true (ordered log);
  (match List.rev log with
   | c3 :: c2 :: c1 :: before :: _ ->
     check
       Alcotest.(list int)
       "the last query's flows close the window" [ 0; 1; 2 ]
       [ c1.seq; c2.seq; c3.seq ];
     check Alcotest.bool "all three from the last request" true
       (c1.request = c3.request && before.request < c1.request)
   | _ -> Alcotest.fail "window shorter than four flows");
  List.iter
    (fun (e : Distsim.Audit.entry) ->
      match e.admitted_by with
      | Some rule ->
        check Helpers.server "the cited rule is the receiver's" e.receiver
          rule.Authz.Authorization.server
      | None -> Alcotest.fail "retained flow without a rule")
    log

(* A long-running service holds a flat heap: live words after a full
   major collection agree at two and at four windows' worth of flows. *)
let test_audit_window_heap_plateau () =
  let fed = medical () in
  let live_after flows =
    serve_n fed ((flows - Federation.audited fed) / 3);
    Gc.full_major ();
    let words = (Gc.stat ()).live_words in
    (* The federation must be live while it is measured. *)
    ignore (Sys.opaque_identity fed);
    words
  in
  let at_two = live_after (2 * Federation.audit_window) in
  let at_four = live_after (4 * Federation.audit_window) in
  let drift = float_of_int (abs (at_four - at_two)) /. float_of_int at_two in
  check Alcotest.bool
    (Fmt.str "live words %d -> %d (%.2f%% drift)" at_two at_four
       (100.0 *. drift))
    true (drift <= 0.02)

let test_parse_error () =
  match Federation.query (medical ()) "SELEC nonsense" with
  | Error (Federation.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected a parse error"

let test_infeasible_with_advice () =
  let fed =
    Federation.create ~catalog:SC.catalog ~policy:SC.policy
      ~instances:SC.instances ()
  in
  match Federation.query fed SC.pricing_query_sql with
  | Error (Federation.Infeasible { advice = Some proposal; _ }) ->
    check Alcotest.bool "non-empty proposal" true
      (proposal.Planner.Advisor.grants <> []);
    let s = Federation.stats fed in
    check Alcotest.int "counted as infeasible" 1 s.Federation.infeasible
  | Error e -> Alcotest.failf "wrong error: %a" Federation.pp_error e
  | Ok _ -> Alcotest.fail "pricing query should be blocked without helpers"

let test_helper_rescue_through_facade () =
  let fed =
    Federation.create ~catalog:SC.catalog ~policy:SC.policy
      ~helpers:[ SC.s_b ] ~instances:SC.instances ()
  in
  match Federation.query fed SC.pricing_query_sql with
  | Error e -> Alcotest.failf "%a" Federation.pp_error e
  | Ok r ->
    check Alcotest.int "one rescue" 1 (List.length r.rescues);
    check Helpers.server "at the broker" SC.s_b r.location

let test_coordinator_through_facade () =
  let fed =
    Federation.create ~catalog:R.catalog ~policy:R.policy
      ~helpers:[ R.s_t ] ~instances:R.instances ()
  in
  match Federation.query fed R.outcomes_query_sql with
  | Error e -> Alcotest.failf "%a" Federation.pp_error e
  | Ok r ->
    check Alcotest.int "four messages" 4 r.messages;
    check Alcotest.int "two outcome rows" 2 (Relation.cardinality r.result)

let test_close_under_chase () =
  (* Give S_D an explicit grant on Hospital; the joined Disease_list ⋈
     Hospital view is only admitted once the policy is chase-closed. *)
  let extended =
    Authz.Policy.add
      (Authz.Authorization.make_exn
         ~attrs:(Schema.attribute_set M.hospital)
         ~path:Joinpath.empty M.s_d)
      M.policy
  in
  let sql =
    "SELECT Illness, Treatment FROM Disease_list JOIN Hospital ON      Illness = Disease"
  in
  let raw =
    Federation.create ~catalog:M.catalog ~policy:extended
      ~instances:M.instances ()
  in
  (* Without closure the intermediate view profile is not admitted for
     any executor of the top join... the join result lands at S_D or
     S_H; S_H can already view it (base + grant?) — verify behaviour
     explicitly: the closed federation must serve the query, the raw
     one must serve it or fail; what matters is closure never hurts. *)
  let closed =
    Federation.create ~catalog:M.catalog ~policy:extended
      ~close_under:M.join_graph ~instances:M.instances ()
  in
  (match Federation.query closed sql with
   | Ok r ->
     check Alcotest.bool "closed serves the query" true
       (Relation.cardinality r.result >= 0)
   | Error e -> Alcotest.failf "closed federation failed: %a" Federation.pp_error e);
  (match (Federation.query raw sql, Federation.query closed sql) with
   | Ok _, Ok _ -> ()
   | Error _, Ok _ -> ()  (* closure recovered it *)
   | _, Error _ -> Alcotest.fail "closure lost feasibility")

(* Fault injection through the facade: the "answered after failover" /
   "partial answer" / "failed" trichotomy of the robustness work. *)

let test_query_with_fault_failover () =
  (* Two servers, both relations replicated at both, open policy: the
     planner's first choice dies permanently and the survivor answers
     after one safe replan. *)
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
  let fed =
    Federation.create ~catalog ~policy:(Authz.Policy.open_policy []) ~instances
      ()
  in
  let sql = "SELECT Adata, Bdata FROM A JOIN B ON Ax = Bx" in
  let victim =
    match Federation.query fed sql with
    | Ok r -> r.location
    | Error e -> Alcotest.failf "baseline failed: %a" Federation.pp_error e
  in
  let fault =
    Distsim.Fault.make
      ~crashes:[ Distsim.Fault.crash victim ~at:0 ]
      ~seed:1 ()
  in
  match Federation.query ~fault fed sql with
  | Error e -> Alcotest.failf "not recovered: %a" Federation.pp_error e
  | Ok r ->
    check Alcotest.int "answered after one failover" 1
      (List.length r.failovers);
    check Alcotest.int "one answer" 1 (Relation.cardinality r.result);
    check Alcotest.bool "the survivor answered" false
      (Server.equal r.location victim)

let test_query_with_fault_degraded () =
  let fed = medical () in
  let fault =
    Distsim.Fault.make ~crashes:[ Distsim.Fault.crash M.s_i ~at:0 ] ~seed:1 ()
  in
  (match Federation.query ~fault fed M.example_query_sql with
   | Error
       (Federation.Degraded { reason = Distsim.Recover.No_safe_replan _; _ })
     ->
     ()
   | Ok _ -> Alcotest.fail "answered without the only copy of Insurance"
   | Error e -> Alcotest.failf "wrong error: %a" Federation.pp_error e);
  (* S_H is down from the start, but S_I's operand leaves for S_N before
     any step needs S_H: the run degrades, and that one emission is
     still audited, retained and counted. *)
  let fed = medical () in
  let fault =
    Distsim.Fault.make ~crashes:[ Distsim.Fault.crash M.s_h ~at:0 ] ~seed:1 ()
  in
  match Federation.query ~fault fed M.example_query_sql with
  | Error (Federation.Degraded _) ->
    check Alcotest.int "the emission is counted" 1 (Federation.audited fed);
    check Alcotest.int "and retained" 1
      (List.length (Federation.audit_log fed))
  | Ok _ -> Alcotest.fail "answered without the only copy of Hospital"
  | Error e -> Alcotest.failf "wrong error: %a" Federation.pp_error e

(* Under every budget from one step to the whole query, naming the
   reliable plan changes nothing: the same outcome, the same steps
   spent and the same audited emissions as naming no plan at all. *)
let test_query_with_reliable_fault_plan () =
  let fed = medical () in
  (match
     Federation.query ~fault:Distsim.Fault.reliable fed M.example_query_sql
   with
   | Error e -> Alcotest.failf "%a" Federation.pp_error e
   | Ok r ->
     check Alcotest.int "no failovers" 0 (List.length r.failovers);
     check Alcotest.int "three answers" 3 (Relation.cardinality r.result));
  let run ?fault ~deadline sql =
    let fed = medical () in
    let outcome =
      match Federation.query ?fault ~deadline fed sql with
      | Ok r -> Fmt.str "ok after %d steps" r.steps
      | Error (Federation.Deadline_exceeded { spent; budget }) ->
        Fmt.str "deadline: %d spent of %d" spent budget
      | Error e -> Fmt.str "%a" Federation.pp_error e
    in
    (outcome, Federation.audited fed)
  in
  List.iter
    (fun sql ->
      let steps =
        match Federation.query (medical ()) sql with
        | Ok r -> r.steps
        | Error e -> Alcotest.failf "%a" Federation.pp_error e
      in
      for k = 1 to steps do
        let clean, clean_audit = run ~deadline:k sql in
        let faulty, faulty_audit =
          run ~fault:Distsim.Fault.reliable ~deadline:k sql
        in
        let at what = Fmt.str "%s at budget %d of %S" what k sql in
        check Alcotest.string (at "outcome") clean faulty;
        check Alcotest.int (at "audited emissions") clean_audit faulty_audit
      done)
    [
      M.example_query_sql;
      "SELECT Holder, Plan, Citizen, HealthAid FROM Insurance JOIN \
       Nat_registry ON Holder = Citizen";
    ]

let suite =
  [
    c "query end to end" `Quick test_query_end_to_end;
    c "plan cache" `Quick test_plan_cache;
    c "audit log accumulates" `Quick test_audit_log_accumulates;
    c "audit window holds the heap flat" `Quick test_audit_window_heap_plateau;
    c "parse errors surface" `Quick test_parse_error;
    c "infeasible with repair advice" `Quick test_infeasible_with_advice;
    c "helper rescue through the facade" `Quick
      test_helper_rescue_through_facade;
    c "coordinator through the facade" `Quick test_coordinator_through_facade;
    c "close_under runs the chase" `Quick test_close_under_chase;
    c "fault: answered after failover" `Quick test_query_with_fault_failover;
    c "fault: typed degradation" `Quick test_query_with_fault_degraded;
    c "fault: reliable plan transparent" `Quick
      test_query_with_reliable_fault_plan;
  ]
