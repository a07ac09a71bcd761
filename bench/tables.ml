(* Quantitative experiment tables (EXP-B .. EXP-F of DESIGN.md).

   The paper itself reports no measurements, so these tables are the
   synthetic evaluation an extended version would contain; each checks
   one of the paper's qualitative claims. *)

open Relalg
open Workload

let line = String.make 72 '-'

let header title =
  Fmt.pr "@.%s@.%s@.%s@." line title line

(* ------------------------------------------------------------------ *)
(* EXP-B: feasibility vs authorization density.                        *)

let feasibility_density ~seeds =
  header
    "EXP-B  Feasibility vs authorization density (chain of 6, 3-join \
     queries)";
  Fmt.pr "%-10s %-12s %-12s %-14s@." "density" "feasible" "infeasible"
    "feasibility";
  List.iter
    (fun density ->
      let feasible = ref 0 and total = ref 0 in
      for seed = 1 to seeds do
        let rng = Rng.make ~seed in
        let sys =
          System_gen.generate rng ~relations:6 ~servers:6 ~extra:2
            ~topology:System_gen.Chain
        in
        let policy = Authz_gen.generate rng ~density sys in
        match Query_gen.generate_plan rng ~joins:3 sys with
        | None -> ()
        | Some plan ->
          incr total;
          if Planner.Safe_planner.feasible sys.catalog policy plan then
            incr feasible
      done;
      Fmt.pr "%-10.2f %-12d %-12d %-14.3f@." density !feasible
        (!total - !feasible)
        (float_of_int !feasible /. float_of_int (max 1 !total)))
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

(* ------------------------------------------------------------------ *)
(* EXP-C: measured communication, semi-join vs regular join.           *)

(* A two-server, single-join fixture shared by EXP-C and EXP-H: the
   same plan with a regular-join assignment and a semi-join one. *)
let single_join_fixture () =
  let rng = Rng.make ~seed:77 in
  let sys =
    System_gen.generate rng ~relations:2 ~servers:2 ~extra:2
      ~topology:System_gen.Chain
  in
  let plan =
    match Query_gen.generate_plan (Rng.make ~seed:1) ~joins:1 sys with
    | Some p -> p
    | None -> assert false
  in
  (* Executors: leaves are fixed; the join runs at the server of the
     left subtree either as a regular join or as a semi-join. *)
  let leaf_assignment =
    List.fold_left
      (fun acc (n : Plan.node) ->
        match n.op with
        | Plan.Leaf schema ->
          let s =
            match Catalog.server_of sys.catalog (Schema.name schema) with
            | Ok s -> s
            | Error _ -> assert false
          in
          Planner.Assignment.set n.id (Planner.Assignment.executor s) acc
        | _ -> acc)
      Planner.Assignment.empty (Plan.nodes plan)
  in
  (* Walk up: unary nodes inherit; find the join node and both leaf
     servers. *)
  let rec executor_of (n : Plan.node) assignment =
    match Planner.Assignment.find_opt assignment n.id with
    | Some e -> (e.Planner.Assignment.master, assignment)
    | None ->
      (match n.op with
       | Plan.Leaf _ -> assert false
       | Plan.Project (_, c) | Plan.Select (_, c) ->
         let s, assignment = executor_of c assignment in
         (s, Planner.Assignment.set n.id (Planner.Assignment.executor s) assignment)
       | Plan.Join (_, l, r) ->
         let sl, assignment = executor_of l assignment in
         let _, assignment = executor_of r assignment in
         (sl, Planner.Assignment.set n.id (Planner.Assignment.executor sl) assignment))
  in
  let _, regular_assignment = executor_of (Plan.root plan) leaf_assignment in
  let semi_assignment =
    (* Same masters, but the join node declares the other operand's
       server as slave. *)
    List.fold_left
      (fun acc (n : Plan.node) ->
        match n.op with
        | Plan.Join (_, l, r) ->
          let master =
            (Planner.Assignment.find regular_assignment n.id)
              .Planner.Assignment.master
          in
          let l_s =
            (Planner.Assignment.find regular_assignment l.Plan.id)
              .Planner.Assignment.master
          in
          let r_s =
            (Planner.Assignment.find regular_assignment r.Plan.id)
              .Planner.Assignment.master
          in
          let slave = if Server.equal master l_s then r_s else l_s in
          Planner.Assignment.set n.id
            (Planner.Assignment.executor ~slave master)
            acc
        | _ -> acc)
      regular_assignment (Plan.nodes plan)
  in
  (sys, plan, regular_assignment, semi_assignment)

let comm_cost () =
  header
    "EXP-C  Measured communication (bytes on the wire), semi-join vs \
     regular join";
  Fmt.pr
    "Single join R0 \xe2\x8b\x88 R1, 1000 rows each, linkage fraction = \
     P(link value has a matching key)@.";
  Fmt.pr "%-18s %-16s %-16s %-10s@." "linkage fraction" "regular (bytes)"
    "semi-join (bytes)" "ratio";
  let sys, plan, regular_assignment, semi_assignment = single_join_fixture () in
  List.iter
    (fun scale ->
      let instances =
        Data_gen.instances (Rng.make ~seed:5) ~rows:1000 ~domain_scale:scale
          sys
      in
      let outcome a = Distsim.Engine.execute sys.catalog ~instances plan a in
      let regular = outcome regular_assignment in
      let semi = outcome semi_assignment in
      match (regular, semi) with
      | Error e, _ | _, Error e -> Harness.fail "%a" Distsim.Engine.pp_error e
      | Ok regular, Ok semi ->
        let reg = Distsim.Network.total_bytes regular.network in
        let semi = Distsim.Network.total_bytes semi.network in
        Fmt.pr "%-18.2f %-16d %-16d %-10.2f@." (1.0 /. scale) reg semi
          (float_of_int reg /. float_of_int (max 1 semi)))
    [ 1.0; 2.0; 5.0; 10.0; 20.0 ]

(* Medical example, as reported by the paper's own assignment. *)
let comm_cost_medical () =
  header "EXP-C' Paper example: wire traffic of the planned execution";
  let module M = Scenario.Medical in
  let plan = M.example_plan () in
  match Planner.Safe_planner.plan M.catalog M.policy plan with
  | Error f -> Fmt.pr "unexpected: %a@." Planner.Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    (match Distsim.Engine.execute M.catalog ~instances:M.instances plan assignment with
     | Error e -> Fmt.pr "unexpected: %a@." Distsim.Engine.pp_error e
     | Ok { network; _ } ->
       Fmt.pr "%a@." Distsim.Network.pp network;
       Fmt.pr "total: %d messages, %d tuples, %d bytes@."
         (Distsim.Network.message_count network)
         (Distsim.Network.total_tuples network)
         (Distsim.Network.total_bytes network))

(* ------------------------------------------------------------------ *)
(* EXP-D: greedy vs exhaustive.                                        *)

let greedy_vs_exhaustive ~seeds =
  header "EXP-D  Greedy (Figure 6) vs exhaustive enumeration";
  let agree_feasible = ref 0
  and agree_infeasible = ref 0
  and disagreements = ref 0
  and cost_ratios = ref [] in
  let model = Planner.Cost.uniform ~card:1000.0 in
  let model = { model with join_selectivity = 0.3 } in
  for seed = 1 to seeds do
    let rng = Rng.make ~seed in
    let sys =
      System_gen.generate rng ~relations:5 ~servers:5 ~extra:2
        ~topology:System_gen.Chain
    in
    let policy = Authz_gen.generate rng ~density:0.5 sys in
    match Query_gen.generate_plan rng ~joins:3 sys with
    | None -> ()
    | Some plan ->
      let greedy = Planner.Safe_planner.plan sys.catalog policy plan in
      let exhaustive = Planner.Exhaustive.min_cost model sys.catalog policy plan in
      (match greedy, exhaustive with
       | Ok { assignment; _ }, Some (_, best) ->
         incr agree_feasible;
         let g = Planner.Cost.assignment_cost model sys.catalog plan assignment in
         cost_ratios := (g /. best) :: !cost_ratios
       | Error _, None -> incr agree_infeasible
       | _ -> incr disagreements)
  done;
  let ratios = !cost_ratios in
  let mean =
    List.fold_left ( +. ) 0.0 ratios /. float_of_int (max 1 (List.length ratios))
  in
  let worst = List.fold_left Float.max 1.0 ratios in
  Fmt.pr "both feasible:            %d@." !agree_feasible;
  Fmt.pr "both infeasible:          %d@." !agree_infeasible;
  Fmt.pr "feasibility disagreement: %d  (0 expected)@." !disagreements;
  Fmt.pr "greedy/optimal cost:      mean %.3f, worst %.3f@." mean worst

(* ------------------------------------------------------------------ *)
(* EXP-E: third-party rescue rate.                                     *)

let third_party_rescue ~seeds =
  header "EXP-E  Third-party rescue rate (footnote 3)";
  Fmt.pr "%-10s %-12s %-12s %-12s %-14s@." "density" "feasible" "rescued"
    "unrescued" "rescue rate";
  List.iter
    (fun density ->
      let feasible = ref 0 and rescued = ref 0 and unrescued = ref 0 in
      for seed = 1 to seeds do
        let rng = Rng.make ~seed in
        let sys =
          System_gen.generate rng ~relations:5 ~servers:5 ~extra:2
            ~topology:System_gen.Chain
        in
        let policy = Authz_gen.generate rng ~density sys in
        (* The helper is an outside auditor granted every subtree view
           in full. *)
        let helper = Server.make "T" in
        let policy =
          List.fold_left
            (fun p (rels, conds) ->
              let path = Joinpath.of_list conds in
              let attrs =
                List.fold_left
                  (fun acc rel ->
                    match Catalog.relation sys.catalog rel with
                    | Ok s -> Attribute.Set.union acc (Schema.attribute_set s)
                    | Error _ -> acc)
                  Attribute.Set.empty rels
              in
              match Authz.Authorization.make ~attrs ~path helper with
              | Ok a -> Authz.Policy.add a p
              | Error _ -> p)
            policy
            (Authz_gen.connected_subtrees sys ~max_edges:3)
        in
        match Query_gen.generate_plan rng ~joins:3 sys with
        | None -> ()
        | Some plan ->
          if Planner.Safe_planner.feasible sys.catalog policy plan then
            incr feasible
          else if
            Planner.Safe_planner.feasible ~helpers:[ helper ] sys.catalog
              policy plan
          then incr rescued
          else incr unrescued
      done;
      let blocked = !rescued + !unrescued in
      Fmt.pr "%-10.2f %-12d %-12d %-12d %-14.3f@." density !feasible !rescued
        !unrescued
        (float_of_int !rescued /. float_of_int (max 1 blocked)))
    [ 0.1; 0.3; 0.5 ]

(* ------------------------------------------------------------------ *)
(* EXP-F: chase closure growth.                                        *)

let chase_growth ~seeds =
  header "EXP-F  Chase closure growth";
  Fmt.pr "%-10s %-16s %-16s@." "density" "rules before" "rules after";
  List.iter
    (fun density ->
      let before = ref 0 and after = ref 0 in
      for seed = 1 to seeds do
        let rng = Rng.make ~seed in
        let sys =
          System_gen.generate rng ~relations:5 ~servers:5 ~extra:1
            ~topology:System_gen.Chain
        in
        let policy = Authz_gen.generate rng ~density sys in
        before := !before + Authz.Policy.cardinality policy;
        let closed = Authz.Chase.close ~joins:sys.join_graph policy in
        after := !after + Authz.Policy.cardinality closed
      done;
      Fmt.pr "%-10.2f %-16.1f %-16.1f@." density
        (float_of_int !before /. float_of_int seeds)
        (float_of_int !after /. float_of_int seeds))
    [ 0.2; 0.4; 0.6 ]

(* ------------------------------------------------------------------ *)
(* EXP-A (wall-clock side): planner latency scales linearly in plan
   size. The bechamel micro-benchmarks in Main measure the same thing
   precisely; this table shows the trend at a glance.               *)

let planner_scaling () =
  header "EXP-A  Planner latency vs plan size (chain queries, full grants)";
  Fmt.pr "%-10s %-12s %-16s %-16s@." "joins" "plan nodes" "time/plan (us)"
    "us per join";
  List.iter
    (fun joins ->
      let relations = joins + 1 in
      let rng = Rng.make ~seed:123 in
      let sys =
        (* A fixed four-server federation: the paper's setting has a
           bounded number of parties, so candidate lists stay short and
           the traversal cost per node is constant. *)
        System_gen.generate rng ~relations ~servers:4 ~extra:2
          ~topology:System_gen.Chain
      in
      let policy =
        Authz_gen.generate (Rng.make ~seed:9) ~max_path:joins ~attr_keep:1.0
          ~density:1.0 sys
      in
      match Query_gen.generate_plan (Rng.make ~seed:3) ~joins sys with
      | None -> ()
      | Some plan ->
        let iterations = 200 in
        let (), dt =
          Harness.time (fun () ->
              for _ = 1 to iterations do
                ignore (Planner.Safe_planner.plan sys.catalog policy plan)
              done)
        in
        let per_plan = dt /. float_of_int iterations *. 1e6 in
        Fmt.pr "%-10d %-12d %-16.1f %-16.2f@." joins (Plan.size plan) per_plan
          (per_plan /. float_of_int joins))
    [ 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* EXP-F': the chase closure as a feasibility mechanism. The paper
   assumes policies are closed under derivation (Section 3.2); this
   measures what planning against the raw, un-closed policy loses. *)

let chase_feasibility ~seeds =
  header "EXP-F' Feasibility: raw policy vs chase-closed policy";
  Fmt.pr "%-10s %-14s %-14s %-14s@." "density" "raw" "closed" "recovered";
  List.iter
    (fun density ->
      let raw_ok = ref 0 and closed_ok = ref 0 and total = ref 0 in
      for seed = 1 to seeds do
        let rng = Rng.make ~seed in
        let sys =
          System_gen.generate rng ~relations:5 ~servers:5 ~extra:2
            ~topology:System_gen.Chain
        in
        let policy = Authz_gen.generate rng ~density sys in
        match Query_gen.generate_plan rng ~joins:3 sys with
        | None -> ()
        | Some plan ->
          incr total;
          let raw = Planner.Safe_planner.feasible sys.catalog policy plan in
          if raw then incr raw_ok;
          let closed =
            Authz.Chase.close ~joins:sys.join_graph policy
          in
          if Planner.Safe_planner.feasible sys.catalog closed plan then
            incr closed_ok
      done;
      Fmt.pr "%-10.2f %-14.3f %-14.3f %-14d@." density
        (float_of_int !raw_ok /. float_of_int (max 1 !total))
        (float_of_int !closed_ok /. float_of_int (max 1 !total))
        (!closed_ok - !raw_ok))
    [ 0.3; 0.5; 0.7 ]

(* ------------------------------------------------------------------ *)
(* EXP-G: join-order optimization — cost improvement and feasibility
   recovery. *)

let optimizer_gains ~seeds =
  header "EXP-G  Two-step optimization: join reordering (Section 5)";
  let model = Planner.Cost.uniform ~card:1000.0 in
  let model = { model with join_selectivity = 0.3 } in
  let default_feasible = ref 0
  and recovered = ref 0
  and still_blocked = ref 0
  and improvements = ref [] in
  for seed = 1 to seeds do
    let rng = Rng.make ~seed in
    let sys =
      System_gen.generate rng ~relations:5 ~servers:5 ~extra:2
        ~topology:(System_gen.Random { extra_edges = 2 })
    in
    let policy = Authz_gen.generate rng ~density:0.4 sys in
    match Query_gen.generate rng ~joins:3 sys with
    | None -> ()
    | Some query ->
      let t = Planner.Optimizer.optimize model sys.catalog policy query in
      let default = List.hd t.Planner.Optimizer.explored in
      (match default.Planner.Optimizer.outcome, t.Planner.Optimizer.best with
       | Planner.Optimizer.Feasible (_, dcost), Some best ->
         incr default_feasible;
         (match best.Planner.Optimizer.outcome with
          | Planner.Optimizer.Feasible (_, bcost) when bcost > 0.0 ->
            improvements := (dcost /. Float.max bcost 1.0) :: !improvements
          | _ -> ())
       | Planner.Optimizer.Infeasible _, Some _ -> incr recovered
       | Planner.Optimizer.Infeasible _, None -> incr still_blocked
       | Planner.Optimizer.Feasible _, None -> assert false)
  done;
  let n = List.length !improvements in
  let mean =
    List.fold_left ( +. ) 0.0 !improvements /. float_of_int (max 1 n)
  in
  Fmt.pr "written order feasible:       %d@." !default_feasible;
  Fmt.pr "recovered by reordering:      %d@." !recovered;
  Fmt.pr "infeasible in every order:    %d@." !still_blocked;
  Fmt.pr "cost: written/best ratio:     mean %.2fx over %d feasible queries@."
    mean n

(* ------------------------------------------------------------------ *)
(* EXP-H: makespan crossover — semi-join vs regular join as the
   network changes. *)

let makespan_crossover () =
  header
    "EXP-H  Makespan crossover: semi-join vs regular join across network \
     regimes";
  Fmt.pr
    "Single join, 1000 rows per relation, 10%% linkage: the semi-join \
     ships ~8x@.fewer bytes but pays an extra round trip.@.";
  let sys, plan, regular, semi = single_join_fixture () in
  let instances =
    Data_gen.instances (Rng.make ~seed:5) ~rows:1000 ~domain_scale:10.0 sys
  in
  let outcome a = Distsim.Engine.execute sys.catalog ~instances plan a in
  match (outcome semi, outcome regular) with
  | Error e, _ | _, Error e -> Harness.fail "%a" Distsim.Engine.pp_error e
  | Ok semi_o, Ok regular_o ->
    Fmt.pr "%-14s %-14s %-16s %-16s %-8s@." "latency (ms)" "bandwidth"
      "semi-join (ms)" "regular (ms)" "winner";
    List.iter
      (fun (latency, bandwidth, label) ->
        let model = Distsim.Des.uniform ~latency ~bandwidth () in
        let m a o =
          (Distsim.Des.makespan model plan a o).Distsim.Des.makespan
        in
        let sm = m semi semi_o and rm = m regular regular_o in
        Fmt.pr "%-14.1f %-14s %-16.3f %-16.3f %-8s@." (latency *. 1000.0)
          label (sm *. 1000.0) (rm *. 1000.0)
          (if sm < rm then "semi" else "regular"))
      [
        (0.001, 100.0, "100 B/s");
        (0.001, 1000.0, "1 KB/s");
        (0.010, 10e3, "10 KB/s");
        (0.010, 10e6, "10 MB/s");
        (0.100, 10e6, "10 MB/s");
      ]

(* ------------------------------------------------------------------ *)
(* EXP-E extension: coordinator vs proxy rescue on the research
   scenario. *)

let coordinator_demo () =
  header "EXP-E' Coordinator vs proxy (research scenario)";
  let module R = Scenario.Research in
  let plan = R.outcomes_plan () in
  Fmt.pr "outcomes query feasible among operands: %b@."
    (Planner.Safe_planner.feasible R.catalog R.policy plan);
  match
    Planner.Third_party.plan ~helpers:[ R.s_t ] R.catalog R.policy plan
  with
  | Error _ -> Fmt.pr "matcher cannot rescue (unexpected)@."
  | Ok { assignment; rescues; _ } ->
    Fmt.pr "%a@."
      Fmt.(list ~sep:(any "@
") Planner.Third_party.pp_rescue)
      rescues;
    (match
       Distsim.Engine.execute R.catalog ~instances:R.instances plan assignment
     with
     | Ok { network; _ } ->
       Fmt.pr "flows:@.%a@." Distsim.Network.pp network;
       Fmt.pr "audit clean: %b@." (Distsim.Audit.is_clean R.policy network)
     | Error e -> Fmt.pr "engine: %a@." Distsim.Engine.pp_error e)

(* ------------------------------------------------------------------ *)
(* EXP-K: ablation of principle ii (prefer high-join-count servers). *)

let count_preference_ablation ~seeds =
  header
    "EXP-K  Ablation: principle ii (prefer high-join-count candidates)";
  let model = Planner.Cost.uniform ~card:1000.0 in
  let model = { model with join_selectivity = 0.3 } in
  let with_pref = ref [] and without_pref = ref [] in
  for seed = 1 to seeds do
    let rng = Rng.make ~seed in
    let sys =
      System_gen.generate rng ~relations:6 ~servers:4 ~extra:2
        ~topology:System_gen.Chain
    in
    let policy =
      Authz_gen.generate rng ~attr_keep:1.0 ~density:0.9 sys
    in
    match Query_gen.generate_plan rng ~joins:4 sys with
    | None -> ()
    | Some plan ->
      let cost config =
        match Planner.Safe_planner.plan ~config sys.catalog policy plan with
        | Ok { assignment; _ } ->
          Some (Planner.Cost.assignment_cost model sys.catalog plan assignment)
        | Error _ -> None
      in
      let base = Planner.Safe_planner.default_config in
      (match
         ( cost base,
           cost { base with Planner.Safe_planner.prefer_high_count = false } )
       with
       | Some a, Some b ->
         with_pref := a :: !with_pref;
         without_pref := b :: !without_pref
       | _ -> ())
  done;
  let mean xs =
    List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))
  in
  Fmt.pr "plans compared:              %d@." (List.length !with_pref);
  Fmt.pr "mean cost with principle ii: %.0f@." (mean !with_pref);
  Fmt.pr "mean cost without:           %.0f@." (mean !without_pref);
  Fmt.pr "ratio (without/with):        %.3f@."
    (mean !without_pref /. Float.max 1.0 (mean !with_pref))

(* ------------------------------------------------------------------ *)
(* EXP-I: concurrent workload under resource contention (DES).         *)

let concurrent_workload () =
  header
    "EXP-I  Concurrent queries under contention (discrete-event \
     simulation)";
  let module M = Scenario.Medical in
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error _ -> assert false
  in
  match
    Distsim.Engine.execute M.catalog ~instances:M.instances plan assignment
  with
  | Error e -> Harness.fail "%a" Distsim.Engine.pp_error e
  | Ok outcome ->
    let model = Distsim.Des.uniform () in
    let solo =
      (Distsim.Des.simulate
         (Distsim.Des.tasks_of_execution model plan assignment outcome))
        .Distsim.Des.makespan
    in
    Fmt.pr
      "N copies of the medical query released together; solo makespan %.3f \
       ms@."
      (solo *. 1000.0);
    Fmt.pr "%-6s %-16s %-12s %-24s@." "N" "makespan (ms)" "vs N x solo"
      "busiest resource";
    List.iter
      (fun n ->
        let tasks =
          List.concat_map
            (fun i ->
              Distsim.Des.tasks_of_execution
                ~prefix:(Printf.sprintf "q%d" i)
                model plan assignment outcome)
            (List.init n (fun i -> i))
        in
        let run = Distsim.Des.simulate tasks in
        let busiest =
          List.fold_left
            (fun (br, bu) (r, u) -> if u > bu then (r, u) else (br, bu))
            ("-", 0.0) run.Distsim.Des.utilization
        in
        Fmt.pr "%-6d %-16.3f %-12.2f %s (%.0f%%)@." n
          (run.Distsim.Des.makespan *. 1000.0)
          (run.Distsim.Des.makespan /. (float_of_int n *. solo))
          (fst busiest) (snd busiest *. 100.0))
      [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* EXP-J: replication — feasibility and communication. *)

let replication_effect ~seeds =
  header "EXP-J  Replication: feasibility and wire traffic";
  Fmt.pr "%-14s %-14s %-18s@." "replication" "feasibility" "mean bytes moved";
  List.iter
    (fun replication ->
      let feasible = ref 0 and total = ref 0 and bytes = ref 0 in
      for seed = 1 to seeds do
        let rng = Rng.make ~seed in
        let sys =
          System_gen.generate ~replication rng ~relations:5 ~servers:5
            ~extra:2 ~topology:System_gen.Chain
        in
        let policy = Authz_gen.generate rng ~density:0.5 sys in
        match Query_gen.generate_plan rng ~joins:3 sys with
        | None -> ()
        | Some plan ->
          incr total;
          (match Planner.Safe_planner.plan sys.catalog policy plan with
           | Error _ -> ()
           | Ok { assignment; _ } ->
             incr feasible;
             let instances = Data_gen.instances rng ~rows:50 sys in
             (match
                Distsim.Engine.execute sys.catalog ~instances plan assignment
              with
              | Ok { network; _ } ->
                bytes := !bytes + Distsim.Network.total_bytes network
              | Error _ -> ()))
      done;
      Fmt.pr "%-14.2f %-14.3f %-18.0f@." replication
        (float_of_int !feasible /. float_of_int (max 1 !total))
        (float_of_int !bytes /. float_of_int (max 1 !feasible)))
    [ 0.0; 0.5; 1.0 ]

let run_all ~seeds =
  planner_scaling ();
  feasibility_density ~seeds;
  comm_cost ();
  comm_cost_medical ();
  greedy_vs_exhaustive ~seeds;
  third_party_rescue ~seeds;
  coordinator_demo ();
  chase_feasibility ~seeds:(min seeds 50);
  optimizer_gains ~seeds;
  makespan_crossover ();
  concurrent_workload ();
  count_preference_ablation ~seeds;
  replication_effect ~seeds;
  chase_growth ~seeds:(min seeds 30)
