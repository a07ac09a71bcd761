(* The recovery supervisor: failover onto replicas with an independent
   safety re-proof, honest typed degradation, and bit-for-bit replay
   determinism. *)

open Relalg
open Distsim
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

(* The medical catalog with Insurance also stored at S_N — lets the
   supervisor shrug off a permanent S_I crash (the replica is already
   the cheaper read, so no failover is even needed). *)
let replicated () =
  Helpers.check_ok Catalog.pp_error
    (Catalog.replicate M.catalog "Insurance" ~at:M.s_n)

let kill ?until server = Fault.make ~crashes:[ Fault.crash ?until server ~at:0 ]

let run ?(catalog = M.catalog) fault =
  Recover.execute catalog M.policy ~instances:M.instances ~fault
    (M.example_plan ())

let reference () =
  Engine.centralized ~instances:M.instances (M.example_plan ())

(* A two-server federation with both relations replicated at both
   servers and an open policy: whichever server the planner picks, its
   permanent death leaves a fully capable survivor — the minimal
   honest failover story. *)
let sa = Server.make "SA"
let sb = Server.make "SB"
let a_schema = Schema.make "A" ~key:[ "Ax" ] [ "Ax"; "Adata" ]
let b_schema = Schema.make "B" ~key:[ "Bx" ] [ "Bx"; "Bdata" ]

let duo_catalog =
  let c = Catalog.of_list [ (a_schema, sa); (b_schema, sb) ] in
  let c = Helpers.check_ok Catalog.pp_error (Catalog.replicate c "A" ~at:sb) in
  Helpers.check_ok Catalog.pp_error (Catalog.replicate c "B" ~at:sa)

let duo_policy = Authz.Policy.open_policy []
let str s = Value.String s

let duo_instances =
  let table =
    [
      ( "A",
        Relation.of_rows a_schema
          [ [ str "x1"; str "a1" ]; [ str "x2"; str "a2" ] ] );
      ( "B",
        Relation.of_rows b_schema
          [ [ str "x1"; str "b1" ]; [ str "x3"; str "b3" ] ] );
    ]
  in
  fun name -> List.assoc_opt name table

let duo_plan () =
  Query.to_plan
    (Sql_parser.parse_exn duo_catalog
       "SELECT Adata, Bdata FROM A JOIN B ON Ax = Bx")

let duo_victim plan =
  match Planner.Third_party.plan ~helpers:[] duo_catalog duo_policy plan with
  | Ok { assignment; _ } ->
    (Planner.Assignment.find assignment (Plan.root plan).Plan.id)
      .Planner.Assignment.master
  | Error _ -> Alcotest.fail "duo plan infeasible"

let duo_run plan fault =
  Recover.execute duo_catalog duo_policy ~instances:duo_instances ~fault plan

let test_failover_to_replica () =
  let plan = duo_plan () in
  let victim = duo_victim plan in
  match duo_run plan (kill victim ~seed:1 ()) with
  | Error d -> Alcotest.failf "not recovered: %a" Recover.pp_reason d.reason
  | Ok r ->
    check Helpers.relation "answer intact"
      (Engine.centralized ~instances:duo_instances plan)
      r.Recover.result;
    check Alcotest.int "one failover" 1 (List.length r.Recover.failovers);
    check Alcotest.int "two attempts" 2 r.Recover.attempts;
    check
      Alcotest.(list Helpers.server)
      "the dead server is written off" [ victim ] r.Recover.excluded;
    let f = List.hd r.Recover.failovers in
    check Alcotest.bool "death was permanent" true f.Recover.permanent;
    (* The replacement runs wholly on the survivor. *)
    List.iter
      (fun (n : Plan.node) ->
        let e = Planner.Assignment.find r.Recover.assignment n.Plan.id in
        check Alcotest.bool "the dead server holds no role" false
          (Server.equal e.Planner.Assignment.master victim))
      (Plan.nodes plan);
    check Alcotest.bool "cumulative audit clean" true
      (Audit.is_clean duo_policy r.Recover.log)

let test_failover_assignment_reproved_independently () =
  let plan = duo_plan () in
  match duo_run plan (kill (duo_victim plan) ~seed:1 ()) with
  | Error d -> Alcotest.failf "not recovered: %a" Recover.pp_reason d.reason
  | Ok r ->
    (* Not just safe by construction: the returned assignment passes
       the independent Definition-4.2 checker, re-run here from
       scratch. *)
    (match
       Planner.Safety.check
         ~third_party:(r.Recover.rescues <> [])
         duo_catalog duo_policy plan r.Recover.assignment
     with
     | Ok _ -> ()
     | Error _ -> Alcotest.fail "recovered assignment fails the re-proof")

let test_replica_already_preferred_no_failover () =
  (* With Insurance replicated at S_N the planner never touches S_I in
     the first place, so its permanent death costs nothing — zero
     failovers, not one. *)
  match run ~catalog:(replicated ()) (kill M.s_i ~seed:1 ()) with
  | Error d -> Alcotest.failf "not recovered: %a" Recover.pp_reason d.reason
  | Ok r ->
    check Helpers.relation "answer intact" (reference ()) r.Recover.result;
    check Alcotest.int "no failover needed" 0 (List.length r.Recover.failovers)

let test_unreplicated_crash_degrades_typed () =
  (* Without a replica the data died with its server: the supervisor
     must refuse, typed, rather than answer without it. *)
  match run (kill M.s_i ~seed:1 ()) with
  | Ok _ -> Alcotest.fail "answered without the only copy of Insurance"
  | Error d ->
    (match d.Recover.reason with
     | Recover.No_safe_replan { dead; _ } ->
       check Alcotest.(list Helpers.server) "names the dead" [ M.s_i ] dead
     | r -> Alcotest.failf "wrong reason: %a" Recover.pp_reason r);
    check Alcotest.bool "what was emitted is still authorized" true
      (Audit.is_clean M.policy d.Recover.log)

let test_transient_outage_absorbed_without_failover () =
  match run (kill ~until:3 M.s_i ~seed:1 ~max_retries:8 ()) with
  | Error d -> Alcotest.failf "not absorbed: %a" Recover.pp_reason d.reason
  | Ok r ->
    check Helpers.relation "answer intact" (reference ()) r.Recover.result;
    check Alcotest.int "no failover" 0 (List.length r.Recover.failovers);
    check Alcotest.int "single attempt" 1 r.Recover.attempts

let lossy_crashing_plan () =
  Fault.make
    ~crashes:[ Fault.crash M.s_i ~at:0 ]
    ~default_link:{ Fault.drop = 0.3; corrupt = 0.1 }
    ~max_retries:8 ~seed:17 ()

let render (o : Recover.outcome) =
  match o with
  | Ok r ->
    Fmt.str "OK %a | %a | %a" Relation.pp r.Recover.result Network.pp
      r.Recover.log
      Fmt.(list ~sep:(any "; ") Fault.pp_event)
      r.Recover.schedule
  | Error d ->
    Fmt.str "ERR %a | %a | %a" Recover.pp_reason d.Recover.reason Network.pp
      d.Recover.log
      Fmt.(list ~sep:(any "; ") Fault.pp_event)
      d.Recover.schedule

let test_replay_determinism () =
  (* Crash + lossy links + failover, run twice from scratch: identical
     message log, retry schedule and outcome. *)
  let once () = run ~catalog:(replicated ()) (lossy_crashing_plan ()) in
  check Alcotest.string "bit-for-bit replay" (render (once ()))
    (render (once ()))

let lossy_plan seed =
  Fault.make
    ~default_link:{ Fault.drop = 0.4; corrupt = 0.1 }
    ~max_retries:8 ~seed ()

(* Deterministically find a seed whose run actually retried — faults
   without retries would make the dominance checks vacuous. *)
let rec lossy_recovered seed =
  if seed > 50 then Alcotest.fail "no lossy seed in range"
  else
    match run (lossy_plan seed) with
    | Ok r when r.Recover.retries > 0 -> (lossy_plan seed, r)
    | _ -> lossy_recovered (seed + 1)

let test_faulty_makespan_dominates_clean () =
  let fplan, r = lossy_recovered 1 in
  let model = Des.uniform () in
  let plan = M.example_plan () in
  let faulty = (Recover.makespan model fplan plan r).Des.makespan in
  let clean =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
    | Ok { assignment; _ } ->
      (match Engine.execute M.catalog ~instances:M.instances plan assignment with
       | Error e -> Alcotest.failf "%a" Engine.pp_error e
       | Ok o -> (Des.makespan model plan assignment o).Des.makespan)
  in
  check Alcotest.bool
    (Fmt.str "faulty %.6f > clean %.6f" faulty clean)
    true (faulty > clean);
  check Alcotest.bool "backoff delay was accrued" true (r.Recover.delay > 0.0)

(* A federation whose first attempt must ship before its master can
   die: A is stored at SA alone, B at SB and SC, and only SB and SC may
   join them. Killing the planner's master after A reached it leaves
   that shipment aborted, and the failover ships A again to the other
   replica of B. *)
let trio () =
  let text = Text.Line_reader.pp_error in
  let sys =
    Helpers.check_ok text
      (Text.Schema_text.parse
         "relation A at SA (Ax*, Adata)\n\
          relation B at SB, SC (Bx*, Bdata)\n\
          join Ax = Bx\n")
  in
  let catalog = sys.Text.Schema_text.catalog in
  let policy =
    Helpers.check_ok text
      (Text.Authz_text.parse catalog
         "[{Ax, Adata}, -] -> SB\n\
          [{Ax, Adata, Bx, Bdata}, {<Ax, Bx>}] -> SB\n\
          [{Ax, Adata}, -] -> SC\n\
          [{Ax, Adata, Bx, Bdata}, {<Ax, Bx>}] -> SC\n")
  in
  let instances =
    Helpers.check_ok text
      (Text.Data_text.parse catalog
         "@relation A\nAx, Adata\nx1, a1\nx2, a2\n\n\
          @relation B\nBx, Bdata\nx1, b1\nx3, b3\n")
  in
  let plan =
    Query.to_plan
      (Sql_parser.parse_exn catalog
         "SELECT Adata, Bdata FROM A JOIN B ON Ax = Bx")
  in
  (catalog, policy, instances, plan)

(* The first crash step of the trio's master that leaves the failover
   aborted emissions to price. *)
let failover_after_emissions () =
  let catalog, policy, instances, plan = trio () in
  let master =
    match Planner.Third_party.plan ~helpers:[] catalog policy plan with
    | Ok { assignment; _ } ->
      (Planner.Assignment.find assignment (Plan.root plan).Plan.id)
        .Planner.Assignment.master
    | Error _ -> Alcotest.fail "trio plan infeasible"
  in
  let rec from at =
    if at > 20 then Alcotest.fail "no crash step leaves aborted emissions"
    else
      let fault = Fault.make ~crashes:[ Fault.crash master ~at ] ~seed:1 () in
      match Recover.execute catalog policy ~instances ~fault plan with
      | Ok r
        when r.Recover.failovers <> []
             && Network.message_count r.Recover.log
                > Network.message_count r.Recover.outcome.Engine.network ->
        (plan, fault, r)
      | _ -> from (at + 1)
  in
  from 0

let test_failover_makespan_schedule () =
  let plan, fault, r = failover_after_emissions () in
  let model = Des.uniform () in
  let s = Recover.makespan model fault plan r in
  check (Alcotest.float 0.0) "root finish is the makespan" s.Des.makespan
    (List.assoc (Plan.root plan).Plan.id s.Des.finish);
  (* The total is the final attempt's makespan plus the aborted
     attempts' wire time, the same float as before the schedule was
     returned; every node is shifted by that same wire time. *)
  let wire net =
    List.fold_left
      (fun acc m -> acc +. Des.wire model m)
      0.0 (Network.messages net)
  in
  let aborted =
    wire r.Recover.log -. wire r.Recover.outcome.Engine.network
  in
  let final =
    Des.makespan ~backoff:(Fault.backoff fault) model plan r.Recover.assignment
      r.Recover.outcome
  in
  check Alcotest.bool "aborted attempts cost wire time" true (aborted > 0.0);
  check (Alcotest.float 0.0) "total unchanged"
    (final.Des.makespan +. aborted)
    s.Des.makespan;
  List.iter2
    (fun (id, shifted) (id', t) ->
      check Alcotest.int "same node" id' id;
      check (Alcotest.float 0.0) (Fmt.str "n%d shifted" id) (t +. aborted)
        shifted)
    s.Des.finish final.Des.finish

(* Degradation reasons and the errors that carry them are one-line
   reports, however many servers or nodes they list: their lists are
   joined with a plain ", ", never a break hint that wraps them. *)
let test_reasons_render_on_one_line () =
  let dead =
    List.map (fun i -> Server.make (Fmt.str "Server_%d" i)) [ 1; 2; 3; 4; 5 ]
  in
  let partial = List.map (fun id -> (id, reference ())) [ 2; 4; 5 ] in
  let one_line what text =
    check Alcotest.bool
      (Fmt.str "%s on one line: %S" what text)
      false (String.contains text '\n')
  in
  List.iter
    (fun reason ->
      one_line "reason" (Fmt.str "%a" Recover.pp_reason reason);
      one_line "federation error"
        (Fmt.str "%a" Federation.pp_error
           (Federation.Degraded
              { reason; failovers = 4; partial; failed_node = Some 6 })))
    [
      Recover.No_safe_replan { dead; failed_at = 3 };
      Recover.Replan_uncertified { dead; detail = "no witnessing rule" };
      Recover.Failover_limit { dead };
    ];
  one_line "graph error"
    (Fmt.str "%a" Des.pp_graph_error
       (Des.Dependency_cycle
          (List.map (Fmt.str "query-%d/transfer-to-master") [ 1; 2; 3; 4; 5 ])))

let test_des_prices_retry_chains () =
  (* The DES sees each failed attempt as its own link task; with the
     fault plan's backoff the makespan strictly exceeds the same
     execution priced with free retries. *)
  let fplan, r = lossy_recovered 1 in
  let model = Des.uniform () in
  let plan = M.example_plan () in
  let tasks backoff =
    Des.tasks_of_execution ?backoff model plan r.Recover.assignment
      r.Recover.outcome
  in
  (* Retry tasks are present and named after their attempt. *)
  check Alcotest.bool "retry tasks present" true
    (List.exists
       (fun (t : Des.task) -> String.contains t.Des.id '~')
       (tasks None));
  let free = (Des.simulate (tasks None)).Des.makespan in
  let priced =
    (Des.simulate (tasks (Some (Fault.backoff fplan)))).Des.makespan
  in
  check Alcotest.bool
    (Fmt.str "priced %.6f > free %.6f" priced free)
    true (priced > free)

let suite =
  [
    c "failover to a replica" `Quick test_failover_to_replica;
    c "failover re-proved independently" `Quick
      test_failover_assignment_reproved_independently;
    c "preferred replica needs no failover" `Quick
      test_replica_already_preferred_no_failover;
    c "unreplicated crash degrades typed" `Quick
      test_unreplicated_crash_degrades_typed;
    c "transient outage absorbed" `Quick
      test_transient_outage_absorbed_without_failover;
    c "replay determinism" `Quick test_replay_determinism;
    c "faulty makespan dominates clean" `Quick
      test_faulty_makespan_dominates_clean;
    c "DES prices retry chains" `Quick test_des_prices_retry_chains;
    c "failover makespan schedule" `Quick test_failover_makespan_schedule;
    c "reasons render on one line" `Quick test_reasons_render_on_one_line;
  ]
