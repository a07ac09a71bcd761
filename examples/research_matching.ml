(* Privacy-preserving record matching with a coordinator (footnote 3).

   A study registry and a clinic must correlate outcomes of study
   participants, but neither may see the other's data, and the trusted
   matcher S_T may see nothing but bare record identifiers. The
   coordinator protocol threads the needle:

     registry --Pid list--------->  S_T
     clinic   --Subject list----->  S_T
     S_T      --matched Subjects->  clinic
     clinic   --matched visits--->  registry (joins locally)

   Every arrow is checked against the policy, at planning time and
   again by the runtime audit.

   Run with: dune exec examples/research_matching.exe *)

open Relalg
module R = Scenario.Research

let banner title = Fmt.pr "@.=== %s ===@." title

let () =
  banner "The federation";
  Fmt.pr "%a@.@.%a@." Catalog.pp R.catalog Authz.Policy.pp R.policy;

  banner "Outcomes query: blocked among the operands";
  let plan = R.outcomes_plan () in
  Fmt.pr "query: %s@." R.outcomes_query_sql;
  (match Planner.Safe_planner.plan R.catalog R.policy plan with
   | Ok _ -> assert false
   | Error f -> Fmt.pr "planner: %a@." Planner.Safe_planner.pp_failure f);

  banner "What would it take to unblock it? (policy advisor)";
  (match Planner.Advisor.advise R.catalog R.policy plan with
   | None -> Fmt.pr "no repair found@."
   | Some proposal ->
     Fmt.pr "%a@." Planner.Advisor.pp_proposal proposal;
     Fmt.pr
       "(an administrator could add these rules — or involve the matcher@.\
        instead, below, releasing far less)@.");

  banner "The trusted matcher as coordinator";
  (match
     Planner.Third_party.plan ~helpers:[ R.s_t ] R.catalog R.policy plan
   with
   | Error _ -> assert false
   | Ok { assignment; rescues; _ } ->
     Fmt.pr "%a@.assignment:@.%a@."
       Fmt.(list ~sep:(any "@\n") Planner.Third_party.pp_rescue)
       rescues Planner.Assignment.pp assignment;
     match
       Distsim.Engine.execute R.catalog ~instances:R.instances plan assignment
     with
     | Error e -> Fmt.failwith "%a" Distsim.Engine.pp_error e
     | Ok ({ result; location; network; _ } as outcome) ->
       Fmt.pr "@.result at %a:@.%a@." Server.pp location Relation.pp result;
       Fmt.pr "@.wire protocol:@.%a@." Distsim.Network.pp network;
       Fmt.pr "@.audit: %b — note the matcher never sees more than bare ids@."
         (Distsim.Audit.is_clean R.policy network);
       let schedule =
         Distsim.Des.makespan (Distsim.Des.uniform ()) plan assignment
           outcome
       in
       Fmt.pr "@.estimated makespan (1 ms links, 10 MB/s):@.%a@."
         Distsim.Des.pp_schedule schedule);

  banner "Markers query: an ordinary semi-join, no third party";
  let plan = R.markers_plan () in
  Fmt.pr "query: %s@." R.markers_query_sql;
  match Planner.Safe_planner.plan R.catalog R.policy plan with
  | Error f -> Fmt.failwith "%a" Planner.Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    Fmt.pr "assignment:@.%a@." Planner.Assignment.pp assignment;
    (match
       Distsim.Engine.execute R.catalog ~instances:R.instances plan assignment
     with
     | Error e -> Fmt.failwith "%a" Distsim.Engine.pp_error e
     | Ok { result; network; _ } ->
       Fmt.pr "result:@.%a@.audit clean: %b@." Relation.pp result
         (Distsim.Audit.is_clean R.policy network))
