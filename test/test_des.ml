open Distsim
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* The generic scheduler on hand-built task graphs.                    *)

let task ?(deps = []) ?(release = 0.0) id resource duration =
  { Des.id; resource; duration; deps; release }

let test_sequential_on_one_resource () =
  let run =
    Des.simulate [ task "a" "cpu:X" 2.0; task "b" "cpu:X" 3.0 ]
  in
  checkf "serialised" 5.0 run.Des.makespan;
  (* Full utilization of the single resource. *)
  check
    Alcotest.(list (pair string (float 1e-9)))
    "utilization"
    [ ("cpu:X", 1.0) ]
    run.Des.utilization

let test_parallel_on_two_resources () =
  let run =
    Des.simulate [ task "a" "cpu:X" 2.0; task "b" "cpu:Y" 3.0 ]
  in
  checkf "overlapped" 3.0 run.Des.makespan

let test_dependencies () =
  let run =
    Des.simulate
      [
        task "a" "cpu:X" 1.0;
        task ~deps:[ "a" ] "b" "cpu:Y" 1.0;
        task ~deps:[ "b" ] "c" "cpu:X" 1.0;
      ]
  in
  checkf "chained" 3.0 run.Des.makespan;
  let s id =
    (List.find (fun s -> s.Des.task.Des.id = id) run.Des.schedule).Des.start
  in
  checkf "b after a" 1.0 (s "b");
  checkf "c after b" 2.0 (s "c")

let test_release_time () =
  let run = Des.simulate [ task ~release:5.0 "late" "cpu:X" 1.0 ] in
  checkf "waits for release" 6.0 run.Des.makespan

let test_fifo_tie_break () =
  (* Two tasks ready at once on one resource: the earlier-ready one
     goes first; equal-ready ties break by id. *)
  let run =
    Des.simulate
      [
        task "z" "cpu:X" 1.0;
        task "a" "cpu:X" 1.0;
      ]
  in
  let order = List.map (fun s -> s.Des.task.Des.id) run.Des.schedule in
  check Alcotest.(list string) "id order" [ "a"; "z" ] order

let graph_error =
  Alcotest.testable Des.pp_graph_error (fun a b -> a = b)

let test_validation () =
  (* simulate raises the typed exception... *)
  (match Des.simulate [ task "a" "r" 1.0; task "a" "r" 1.0 ] with
   | exception Des.Invalid_graph (Des.Duplicate_task "a") -> ()
   | _ -> Alcotest.fail "duplicate id accepted");
  (match Des.simulate [ task ~deps:[ "ghost" ] "a" "r" 1.0 ] with
   | exception
       Des.Invalid_graph (Des.Unknown_dependency { task = "a"; dep = "ghost" })
     ->
     ()
   | _ -> Alcotest.fail "unknown dep accepted");
  (match
     Des.simulate
       [ task ~deps:[ "b" ] "a" "r" 1.0; task ~deps:[ "a" ] "b" "r" 1.0 ]
   with
   | exception Des.Invalid_graph (Des.Dependency_cycle [ "a"; "b" ]) -> ()
   | _ -> Alcotest.fail "cycle accepted");
  (* ...and validate reports the same verdicts without raising. *)
  check
    Alcotest.(result unit graph_error)
    "duplicate"
    (Error (Des.Duplicate_task "a"))
    (Des.validate [ task "a" "r" 1.0; task "a" "r" 1.0 ]);
  check
    Alcotest.(result unit graph_error)
    "unknown dep"
    (Error (Des.Unknown_dependency { task = "a"; dep = "ghost" }))
    (Des.validate [ task ~deps:[ "ghost" ] "a" "r" 1.0 ]);
  check
    Alcotest.(result unit graph_error)
    "clean graph" (Ok ())
    (Des.validate [ task "a" "r" 1.0; task ~deps:[ "a" ] "b" "r" 1.0 ])

let test_cycle_downstream_tasks_listed () =
  (* A task hanging off a cycle is stuck too, and named in the error;
     the task upstream of the cycle is not. *)
  match
    Des.validate
      [
        task "root" "r" 1.0;
        task ~deps:[ "root"; "c2" ] "c1" "r" 1.0;
        task ~deps:[ "c1" ] "c2" "r" 1.0;
        task ~deps:[ "c2" ] "victim" "r" 1.0;
      ]
  with
  | Error (Des.Dependency_cycle ids) ->
    check Alcotest.(list string) "cycle + downstream" [ "c1"; "c2"; "victim" ]
      ids
  | Ok () -> Alcotest.fail "cycle accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Des.pp_graph_error e

let test_empty () =
  checkf "empty makespan" 0.0 (Des.simulate []).Des.makespan

(* ------------------------------------------------------------------ *)
(* Task graphs from real executions.                                   *)

let medical_execution () =
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  let outcome =
    match Engine.execute M.catalog ~instances:M.instances plan assignment with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
  in
  (plan, assignment, outcome)

let model = Des.uniform ()

let test_medical_tasks () =
  let plan, assignment, outcome = medical_execution () in
  let tasks = Des.tasks_of_execution model plan assignment outcome in
  (* 7 node tasks + 1 regular-join transfer + semi-join's project, fwd,
     slave-join, back = 12 tasks total. *)
  check Alcotest.int "twelve tasks" 12 (List.length tasks);
  let run = Des.simulate tasks in
  check Alcotest.bool "positive makespan" true (run.Des.makespan > 0.0);
  checkf "root completion = makespan"
    run.Des.makespan
    (Option.get (Des.query_finish run ~prefix:"q"));
  check Alcotest.bool "unknown prefix is None" true
    (Des.query_finish run ~prefix:"no-such-query" = None)

(* The analytic schedule is the contended one without contention. On
   random executions, clean and fault-injected (retries priced with the
   injector's backoff), under several network models: [Des.makespan]
   is the critical path of the task graph, [simulate] on the same graph
   never beats it, and the two agree whenever no two tasks share a
   resource — always the case once every task gets a resource of its
   own. *)

let critical_path tasks =
  let by_id = Hashtbl.create 64 and memo = Hashtbl.create 64 in
  List.iter (fun (t : Des.task) -> Hashtbl.replace by_id t.id t) tasks;
  let rec finish id =
    match Hashtbl.find_opt memo id with
    | Some f -> f
    | None ->
      let t : Des.task = Hashtbl.find by_id id in
      let f =
        List.fold_left (fun acc d -> Float.max acc (finish d)) t.release t.deps
        +. t.duration
      in
      Hashtbl.add memo id f;
      f
  in
  List.fold_left (fun acc (t : Des.task) -> Float.max acc (finish t.id)) 0.0
    tasks

let shares_resource tasks =
  let resources = List.map (fun (t : Des.task) -> t.resource) tasks in
  List.length (List.sort_uniq String.compare resources)
  < List.length resources

let network_models =
  [
    Des.uniform ();
    Des.uniform ~latency:0.1 ~bandwidth:1e9 ~per_tuple:0.0 ();
    Des.uniform ~latency:1e-3 ~bandwidth:1e3 ~per_tuple:1e-5 ();
    (* Every directed link different, so a transfer priced on the wrong
       link shows. *)
    {
      Des.link =
        (fun src dst ->
          let h = Hashtbl.hash Relalg.Server.(name src, name dst) mod 7 in
          { Des.latency = 1e-3 *. float_of_int (1 + h); bandwidth = 1e5 });
      per_tuple = 1e-6;
    };
  ]

(* Clean executions of feasible 3-join queries on generated 3-server
   federations (helpers allowed, so proxies and coordinators occur),
   and recovered runs of the same queries over lossy links. *)
let random_executions () =
  List.concat_map
    (fun seed ->
      let rng = Workload.Rng.make ~seed in
      let sys =
        Workload.System_gen.generate rng ~relations:5 ~servers:3 ~extra:1
          ~topology:
            (if seed mod 2 = 0 then Workload.System_gen.Chain
             else Workload.System_gen.Random { extra_edges = 2 })
      in
      let catalog = sys.Workload.System_gen.catalog in
      let policy = Workload.Authz_gen.generate rng ~density:0.6 sys in
      let helpers = Workload.System_gen.servers sys in
      match Workload.Query_gen.generate_plan rng ~joins:3 sys with
      | None -> []
      | Some plan -> (
        let instances = Workload.Data_gen.instances rng ~rows:8 sys in
        match Planner.Third_party.plan ~helpers catalog policy plan with
        | Error _ -> []
        | Ok { assignment; rescues; _ } ->
          let clean =
            match
              Engine.execute ~third_party:(rescues <> []) catalog ~instances
                plan assignment
            with
            | Ok o -> [ (plan, assignment, o, None) ]
            | Error e -> Alcotest.failf "seed %d: %a" seed Engine.pp_error e
          in
          let fault =
            Fault.make
              ~default_link:{ Fault.drop = 0.3; corrupt = 0.1 }
              ~max_retries:10 ~seed ()
          in
          let faulty =
            match
              Recover.execute ~helpers catalog policy ~instances ~fault plan
            with
            | Ok r ->
              [
                ( plan,
                  r.Recover.assignment,
                  r.Recover.outcome,
                  Some (Fault.backoff fault) );
              ]
            | Error _ -> []
          in
          clean @ faulty))
    (List.init 80 (fun i -> i + 1))

let test_analytic_is_uncontended_des () =
  let executions = random_executions () in
  let runs = ref 0 and retried = ref 0 and contended = ref 0 in
  let rescued =
    List.length
      (List.filter
         (fun (_, _, (o : Engine.outcome), _) ->
           List.exists
             (fun (m : Network.message) ->
               match m.purpose with
               | Network.Proxy_operand _ | Network.Matched_keys _ -> true
               | _ -> false)
             (Network.messages o.network))
         executions)
  in
  List.iter
    (fun (plan, assignment, outcome, backoff) ->
      List.iter
        (fun model ->
          incr runs;
          let tasks =
            Des.tasks_of_execution ?backoff model plan assignment outcome
          in
          if List.exists (fun (t : Des.task) -> String.contains t.id '~') tasks
          then incr retried;
          let analytic =
            (Des.makespan ?backoff model plan assignment outcome).Des.makespan
          in
          checkf "analytic = critical path" (critical_path tasks) analytic;
          let spread =
            Des.simulate
              (List.map
                 (fun (t : Des.task) -> { t with resource = t.id })
                 tasks)
          in
          checkf "analytic = DES without shared resources" spread.Des.makespan
            analytic;
          let run = Des.simulate tasks in
          if shares_resource tasks then begin
            if run.Des.makespan > analytic +. 1e-12 then incr contended;
            check Alcotest.bool
              (Fmt.str "DES %.9f >= analytic %.9f" run.Des.makespan analytic)
              true
              (run.Des.makespan >= analytic -. 1e-12)
          end
          else checkf "uncontended DES = analytic" analytic run.Des.makespan)
        network_models)
    executions;
  check Alcotest.bool
    (Fmt.str "enough runs (%d, %d with retries, %d contended, %d rescued)"
       !runs !retried !contended rescued)
    true
    (!runs >= 300 && !retried >= 100 && !contended >= 100 && rescued >= 5)

let test_concurrent_queries_contend () =
  (* Eight copies of the same query released together: resources
     serialise, so the makespan strictly exceeds one query's — and the
     busiest resource is S_N's inbound or outbound link or CPU. *)
  let plan, assignment, outcome = medical_execution () in
  let one =
    Des.simulate (Des.tasks_of_execution model plan assignment outcome)
  in
  let tasks =
    List.concat_map
      (fun i ->
        Des.tasks_of_execution
          ~prefix:(Printf.sprintf "q%d" i)
          model plan assignment outcome)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let eight = Des.simulate tasks in
  check Alcotest.bool "contention slows the batch" true
    (eight.Des.makespan > one.Des.makespan *. 1.5);
  (* All queries complete. *)
  List.iter
    (fun i ->
      let f =
        Option.get (Des.query_finish eight ~prefix:(Printf.sprintf "q%d" i))
      in
      check Alcotest.bool "finished within makespan" true
        (f <= eight.Des.makespan +. 1e-9))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* Utilization figures are sane. *)
  List.iter
    (fun (_, u) ->
      check Alcotest.bool "0 <= u <= 1" true (u >= 0.0 && u <= 1.0 +. 1e-9))
    eight.Des.utilization

let test_staggered_releases () =
  (* Spacing arrivals far apart removes contention: each query takes
     its solo time. *)
  let plan, assignment, outcome = medical_execution () in
  let solo =
    Des.simulate (Des.tasks_of_execution model plan assignment outcome)
  in
  let gap = solo.Des.makespan *. 2.0 in
  let tasks =
    List.concat_map
      (fun i ->
        Des.tasks_of_execution
          ~prefix:(Printf.sprintf "q%d" i)
          ~release:(float_of_int i *. gap)
          model plan assignment outcome)
      [ 0; 1; 2 ]
  in
  let run = Des.simulate tasks in
  checkf "last query unimpeded" (2.0 *. gap +. solo.Des.makespan)
    (Option.get (Des.query_finish run ~prefix:"q2"))

let test_coordinator_tasks () =
  let module R = Scenario.Research in
  let plan = R.outcomes_plan () in
  let assignment =
    match
      Planner.Third_party.plan ~helpers:[ R.s_t ] R.catalog R.policy plan
    with
    | Ok r -> r.Planner.Third_party.assignment
    | Error _ -> Alcotest.fail "not rescued"
  in
  let outcome =
    match Engine.execute R.catalog ~instances:R.instances plan assignment with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Engine.pp_error e
  in
  let tasks = Des.tasks_of_execution model plan assignment outcome in
  let run = Des.simulate tasks in
  (* The matcher's CPU appears among the resources. *)
  check Alcotest.bool "matcher scheduled" true
    (List.exists (fun (r, _) -> r = "cpu:S_T") run.Des.utilization);
  check Alcotest.bool "positive makespan" true (run.Des.makespan > 0.0)

let suite =
  [
    c "sequential on one resource" `Quick test_sequential_on_one_resource;
    c "parallel on two resources" `Quick test_parallel_on_two_resources;
    c "dependencies" `Quick test_dependencies;
    c "release times" `Quick test_release_time;
    c "FIFO tie-break" `Quick test_fifo_tie_break;
    c "validation" `Quick test_validation;
    c "cycle error names stuck tasks" `Quick test_cycle_downstream_tasks_listed;
    c "empty task set" `Quick test_empty;
    c "medical execution task graph" `Quick test_medical_tasks;
    c "DES dominates the analytic model, equal without contention" `Quick
      test_analytic_is_uncontended_des;
    c "concurrent queries contend" `Quick test_concurrent_queries_contend;
    c "staggered releases decouple" `Quick test_staggered_releases;
    c "coordinator task graph" `Quick test_coordinator_tasks;
  ]
