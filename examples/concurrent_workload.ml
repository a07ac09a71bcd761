(* Concurrent queries under resource contention.

   The analytic makespan model prices one query on an idle network; a
   federation serves many. The discrete-event simulator schedules the
   task graphs of several concurrent queries over single-capacity
   resources (one CPU per server, one FIFO channel per directed link)
   and shows where the federation saturates.

   Here: N clients fire the paper's medical query at once. The
   bottleneck is the S_N -> S_H link (the semi-join answer of every
   query crosses it), and the batch throughput converges to about 2x
   the naive N x solo estimate as the pipeline fills.

   Run with: dune exec examples/concurrent_workload.exe *)

module M = Scenario.Medical
module Des = Distsim.Des

let () =
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Fmt.failwith "%a" Planner.Safe_planner.pp_failure f
  in
  let outcome =
    match
      Distsim.Engine.execute M.catalog ~instances:M.instances plan assignment
    with
    | Ok o -> o
    | Error e -> Fmt.failwith "%a" Distsim.Engine.pp_error e
  in
  let model = Distsim.Des.uniform () in

  Fmt.pr "=== One query: full schedule ===@.";
  let solo =
    Des.simulate (Des.tasks_of_execution model plan assignment outcome)
  in
  Fmt.pr "%a@." Des.pp_run solo;

  Fmt.pr "@.=== Scaling the client count ===@.";
  Fmt.pr "%-6s %-16s %-14s %-24s@." "N" "makespan (ms)" "mean lat (ms)"
    "busiest resource";
  List.iter
    (fun n ->
      let tasks =
        List.concat_map
          (fun i ->
            Des.tasks_of_execution
              ~prefix:(Printf.sprintf "q%d" i)
              model plan assignment outcome)
          (List.init n (fun i -> i))
      in
      let run = Des.simulate tasks in
      let latencies =
        List.init n (fun i ->
            Option.get
              (Des.query_finish run ~prefix:(Printf.sprintf "q%d" i)))
      in
      let mean =
        List.fold_left ( +. ) 0.0 latencies /. float_of_int n
      in
      let busiest =
        List.fold_left
          (fun (br, bu) (r, u) -> if u > bu then (r, u) else (br, bu))
          ("-", 0.0) run.Des.utilization
      in
      Fmt.pr "%-6d %-16.3f %-14.3f %s (%.0f%%)@." n
        (run.Des.makespan *. 1000.0)
        (mean *. 1000.0) (fst busiest)
        (snd busiest *. 100.0))
    [ 1; 2; 4; 8; 16; 32 ];

  Fmt.pr
    "@.The S_N->S_H link carries every query's semi-join answer: it@.\
     saturates first and sets the federation's throughput ceiling.@."
