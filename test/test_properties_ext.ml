(* End-to-end properties for the extensions (optimizer, third party,
   advisor) over randomly generated federations — the same style as
   test_properties.ml, exercising the code paths the base properties
   do not reach. *)

open Relalg
open Workload

let c = Alcotest.test_case
let check = Alcotest.check

type case = {
  sys : System_gen.t;
  policy : Authz.Policy.t;
  query : Query.t;
}

let cases =
  lazy
    (List.filter_map
       (fun seed ->
         let rng = Rng.make ~seed in
         let topology =
           if seed mod 2 = 0 then System_gen.Chain
           else System_gen.Random { extra_edges = 2 }
         in
         let sys =
           System_gen.generate rng ~relations:5 ~servers:5 ~extra:2 ~topology
         in
         let density = if seed mod 3 = 0 then 0.8 else 0.4 in
         let policy = Authz_gen.generate rng ~density sys in
         Option.map
           (fun query -> { sys; policy; query })
           (Query_gen.generate rng ~joins:3 sys))
       (List.init 60 (fun i -> 500 + i)))

let model = Planner.Cost.uniform ~card:100.0

let test_optimizer_soundness () =
  (* Every feasible order the optimizer reports comes with a safe
     assignment, and all orders evaluate to the same answer. *)
  List.iteri
    (fun i case ->
      let t =
        Planner.Optimizer.optimize model case.sys.catalog case.policy
          case.query
      in
      let instances =
        Data_gen.instances (Rng.make ~seed:(9000 + i)) ~rows:12 case.sys
      in
      let reference = ref None in
      List.iter
        (fun (e : Planner.Optimizer.explored) ->
          (* Same answer in every explored order. *)
          let result =
            Distsim.Engine.centralized ~instances e.plan
          in
          (match !reference with
           | None -> reference := Some result
           | Some r -> check Helpers.relation "order-independent answer" r result);
          match e.outcome with
          | Planner.Optimizer.Feasible (assignment, cost) ->
            check Alcotest.bool "feasible => safe" true
              (Planner.Safety.is_safe case.sys.catalog case.policy e.plan
                 assignment);
            check Alcotest.bool "finite cost" true (cost < infinity)
          | Planner.Optimizer.Infeasible _ -> ())
        t.explored)
    (Lazy.force cases)

let test_optimizer_never_worse () =
  List.iter
    (fun case ->
      let t =
        Planner.Optimizer.optimize model case.sys.catalog case.policy
          case.query
      in
      match (List.hd t.explored).outcome, t.best with
      | Planner.Optimizer.Feasible (_, dcost), Some best ->
        (match best.outcome with
         | Planner.Optimizer.Feasible (_, bcost) ->
           check Alcotest.bool "best <= written order" true (bcost <= dcost)
         | Planner.Optimizer.Infeasible _ ->
           Alcotest.fail "best must be feasible")
      | Planner.Optimizer.Infeasible _, _ -> ()
      | Planner.Optimizer.Feasible _, None ->
        Alcotest.fail "written order feasible but best missing")
    (Lazy.force cases)

(* A helper server granted every connected-subtree view in full. *)
let omniscient_helper sys =
  let helper = Server.make "Helper" in
  let policy =
    List.fold_left
      (fun p (rels, conds) ->
        let path = Joinpath.of_list conds in
        let attrs =
          List.fold_left
            (fun acc rel ->
              match Catalog.relation sys.System_gen.catalog rel with
              | Ok s -> Attribute.Set.union acc (Schema.attribute_set s)
              | Error _ -> acc)
            Attribute.Set.empty rels
        in
        match Authz.Authorization.make ~attrs ~path helper with
        | Ok a -> Authz.Policy.add a p
        | Error _ -> p)
      Authz.Policy.empty
      (Authz_gen.connected_subtrees sys ~max_edges:4)
  in
  (helper, policy)

let test_third_party_end_to_end () =
  (* Blocked queries rescued by an omniscient helper still execute
     correctly and audit clean (with the helper's grants added). *)
  let rescued = ref 0 in
  List.iteri
    (fun i case ->
      let plan = Query.to_plan case.query in
      if not (Planner.Safe_planner.feasible case.sys.catalog case.policy plan)
      then begin
        let helper, helper_grants = omniscient_helper case.sys in
        let policy = Authz.Policy.union case.policy helper_grants in
        match
          Planner.Third_party.plan ~helpers:[ helper ] case.sys.catalog
            policy plan
        with
        | Error _ -> ()
        | Ok { assignment; rescues; _ } ->
          incr rescued;
          check Alcotest.bool "some rescue recorded" true (rescues <> []);
          check Alcotest.bool "safe under third-party rules" true
            (Planner.Safety.is_safe ~third_party:true case.sys.catalog policy
               plan assignment);
          let instances =
            Data_gen.instances (Rng.make ~seed:(7000 + i)) ~rows:12 case.sys
          in
          (match
             Distsim.Engine.execute ~third_party:true case.sys.catalog
               ~instances plan assignment
           with
           | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
           | Ok { result; network; _ } ->
             check Helpers.relation "distributed = centralized"
               (Distsim.Engine.centralized ~instances plan)
               result;
             check Alcotest.bool "audit clean" true
               (Distsim.Audit.is_clean policy network))
      end)
    (Lazy.force cases);
  check Alcotest.bool "rescues exercised" true (!rescued >= 5)

let test_advisor_repairs_random_cases () =
  let repaired = ref 0 in
  List.iter
    (fun case ->
      let plan = Query.to_plan case.query in
      if not (Planner.Safe_planner.feasible case.sys.catalog case.policy plan)
      then
        match Planner.Advisor.advise case.sys.catalog case.policy plan with
        | None -> ()
        | Some { grants; assignment; extended } ->
          incr repaired;
          check Alcotest.bool "grants non-empty" true (grants <> []);
          check Alcotest.bool "safe under extended policy" true
            (Planner.Safety.is_safe case.sys.catalog extended plan assignment);
          (* The extension is conservative: it contains the original. *)
          List.iter
            (fun a ->
              check Alcotest.bool "original rule kept" true
                (List.exists
                   (Authz.Authorization.equal a)
                   (Authz.Policy.authorizations extended)))
            (Authz.Policy.authorizations case.policy))
    (Lazy.force cases);
  check Alcotest.bool "repairs exercised" true (!repaired >= 5)

let test_makespan_on_random_cases () =
  (* The makespan model accepts every planned execution and yields
     dependency-consistent schedules. *)
  let planned = ref 0 in
  List.iteri
    (fun i case ->
      let plan = Query.to_plan case.query in
      match Planner.Safe_planner.plan case.sys.catalog case.policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } ->
        incr planned;
        let instances =
          Data_gen.instances (Rng.make ~seed:(8000 + i)) ~rows:10 case.sys
        in
        (match
           Distsim.Engine.execute case.sys.catalog ~instances plan assignment
         with
         | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
         | Ok outcome ->
           let schedule =
             Distsim.Des.makespan (Distsim.Des.uniform ()) plan
               assignment outcome
           in
           check Alcotest.bool "non-negative makespan" true
             (schedule.Distsim.Des.makespan >= 0.0);
           List.iter
             (fun (n : Plan.node) ->
               let t id = List.assoc id schedule.Distsim.Des.finish in
               List.iter
                 (fun (child : Plan.node) ->
                   check Alcotest.bool "monotone schedule" true
                     (t n.Plan.id >= t child.Plan.id))
                 (Plan.children n))
             (Plan.nodes plan)))
    (Lazy.force cases);
  check Alcotest.bool "schedules exercised" true (!planned >= 5)

let test_script_compilation () =
  (* Every planned case compiles to a script whose temporaries are
     defined at a server before being shipped from it, and whose
     result lands where the assignment says. *)
  let compiled = ref 0 in
  List.iter
    (fun case ->
      let plan = Query.to_plan case.query in
      match Planner.Safe_planner.plan case.sys.catalog case.policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } ->
        (match Planner.Script.of_assignment case.sys.catalog plan assignment with
         | Error e -> Alcotest.failf "%a" Planner.Safety.pp_error e
         | Ok s ->
           incr compiled;
           let defined = Hashtbl.create 16 in
           List.iter
             (function
               | Planner.Script.Local { defines; at; _ } ->
                 Hashtbl.replace defined (defines, Server.name at) ()
               | Planner.Script.Ship { src; dst; temp } ->
                 check Alcotest.bool "temp defined before shipping" true
                   (Hashtbl.mem defined (temp, Server.name src));
                 Hashtbl.replace defined (temp, Server.name dst) ())
             s.Planner.Script.steps;
           check Alcotest.bool "result materialised" true
             (Hashtbl.mem defined
                (s.Planner.Script.result,
                 Server.name s.Planner.Script.location));
           (* The number of Ship steps equals the number of safety
              flows. *)
           let flows =
             match Planner.Safety.flows case.sys.catalog plan assignment with
             | Ok fs -> fs
             | Error _ -> assert false
           in
           let ships =
             List.length
               (List.filter
                  (function Planner.Script.Ship _ -> true | _ -> false)
                  s.Planner.Script.steps)
           in
           check Alcotest.int "ships = flows" (List.length flows) ships))
    (Lazy.force cases);
  check Alcotest.bool "compiled some" true (!compiled >= 5)

let suite =
  [
    c "optimizer: explored orders are sound" `Slow test_optimizer_soundness;
    c "optimizer: never worse than the written order" `Slow
      test_optimizer_never_worse;
    c "third party: rescue, execute, audit" `Slow test_third_party_end_to_end;
    c "advisor: repairs are sound and conservative" `Slow
      test_advisor_repairs_random_cases;
    c "timing: schedules are consistent" `Slow test_makespan_on_random_cases;
    c "script: compiles, temps in order, ships = flows" `Slow
      test_script_compilation;
  ]
