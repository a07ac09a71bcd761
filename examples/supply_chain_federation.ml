(* A supply-chain federation: manufacturer, supplier, logistics and a
   broker. Demonstrates the corners of the model beyond the paper's
   running example:

   - a query infeasible among the operand servers, rescued by a third
     party (footnote 3);
   - a query feasible only through the semi-join modes (the
     regular-join-only baseline fails);
   - an instance-based restriction: the supplier sees customers only
     for orders involving its own parts.

   Run with: dune exec examples/supply_chain_federation.exe *)

open Relalg
module SC = Scenario.Supply_chain

let banner title = Fmt.pr "@.=== %s ===@." title

let plan_and_report ?(config = Planner.Safe_planner.default_config)
    ?(helpers = []) ~sql plan =
  Fmt.pr "query: %s@." sql;
  match Planner.Safe_planner.plan ~config ~helpers SC.catalog SC.policy plan with
  | Error f ->
    Fmt.pr "planner: %a@." Planner.Safe_planner.pp_failure f;
    None
  | Ok { assignment; _ } ->
    Fmt.pr "assignment:@.%a@." Planner.Assignment.pp assignment;
    Some assignment

let execute ?(third_party = false) plan assignment =
  match
    Distsim.Engine.execute ~third_party SC.catalog ~instances:SC.instances
      plan assignment
  with
  | Error e -> Fmt.failwith "%a" Distsim.Engine.pp_error e
  | Ok { result; location; network; _ } ->
    Fmt.pr "result at %a:@.%a@.flows:@.%a@.audit clean: %b@." Server.pp
      location Relation.pp result Distsim.Network.pp network
      (Distsim.Audit.is_clean SC.policy network)

let () =
  banner "The federation";
  Fmt.pr "%a@.@.%a@." Catalog.pp SC.catalog Authz.Policy.pp SC.policy;

  banner "1. Pricing query: blocked between the parties...";
  let pricing = SC.pricing_plan () in
  (match plan_and_report ~sql:SC.pricing_query_sql pricing with
   | Some _ -> assert false (* designed to be infeasible *)
   | None -> ());

  banner "   ...but the broker rescues it (third-party mode)";
  (match
     Planner.Third_party.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy pricing
   with
   | Error _ -> assert false
   | Ok { assignment; rescues; _ } ->
     Fmt.pr "%a@."
       Fmt.(list ~sep:(any "@\n") Planner.Third_party.pp_rescue)
       rescues;
     execute ~third_party:true pricing assignment);

  banner "2. Tracking query: only the semi-join modes are authorized";
  let tracking = SC.tracking_plan () in
  (match plan_and_report ~sql:SC.tracking_query_sql tracking with
   | None -> assert false
   | Some assignment -> execute tracking assignment);
  let regular_only =
    { Planner.Safe_planner.default_config with allow_semijoins = false }
  in
  Fmt.pr "with semi-joins disabled the same query is infeasible: %b@."
    (not
       (Planner.Safe_planner.feasible ~config:regular_only SC.catalog
          SC.policy tracking));

  banner "3. Customers query: instance-based restriction in action";
  (* The supplier is authorized for customers only under the join path
     Part=PartNo, so the semi-join keeps it from seeing customers whose
     orders involve other suppliers' parts. *)
  let customers = SC.customers_plan () in
  match plan_and_report ~sql:SC.customers_query_sql customers with
  | None -> assert false
  | Some assignment -> execute customers assignment
