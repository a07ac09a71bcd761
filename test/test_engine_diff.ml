(* The compiled engine against its tree-walking twin
   ([Oracle.Interpreter]) on generated federations: instances with
   NULLs (NULL join keys included), replicated leaves, helper servers
   for coordinator and proxy joins, bushy plans with selections, the
   batch executor and Bloom reducers, and [Fault.random_plan]
   schedules with and without deadlines. Every run must agree on the
   result and its header, every message field, the node rows, the
   steps, the observed nodes, the fault events and the typed error; and
   the keyed audit of the compiled run must agree with the profile-keyed
   reference of [Test_audit.agrees]. *)

open Relalg
open Distsim
module W = Workload
module Interp = Oracle.Interpreter

(* ------------------------------------------------------------------ *)
(* Generated federations.                                              *)

(* A random connected set of [joins] edges, then a join tree over it
   split at a random edge each time: bushy as often as left-deep, with
   either child on either side. Leaves may carry a selection (NULL
   contract included), and the root projects a random attribute
   subset. *)
let bushy_plan rng (sys : W.System_gen.t) ~joins =
  let schema name =
    Result.get_ok (Catalog.relation sys.catalog name)
  in
  let names = List.map Schema.name (Catalog.schemas sys.catalog) in
  let rec grow visited chosen k =
    let frontier =
      List.filter
        (fun (a, b, _) -> List.mem a visited <> List.mem b visited)
        sys.edges
    in
    if k = 0 || frontier = [] then (visited, chosen)
    else
      let ((a, b, _) as e) = W.Rng.choose rng frontier in
      let fresh = if List.mem a visited then b else a in
      grow (fresh :: visited) (e :: chosen) (k - 1)
  in
  let rels, edges = grow [ W.Rng.choose rng names ] [] joins in
  let leaf name =
    let s = schema name in
    let base = Algebra.Relation s in
    if W.Rng.flip rng 0.3 then
      let attr = W.Rng.choose rng (Schema.attributes s) in
      let cmp =
        W.Rng.choose rng Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ]
      in
      let atom = Predicate.Cmp (attr, cmp, Const (Value.Int (W.Rng.int rng 12))) in
      let pred = if W.Rng.flip rng 0.3 then Predicate.Not atom else atom in
      Algebra.Select (pred, base)
    else base
  in
  let rec build rels edges =
    match edges with
    | [] -> leaf (List.hd rels)
    | _ ->
      let ((a, _, cond) as cut) = W.Rng.choose rng edges in
      let rest = List.filter (fun e -> e != cut) edges in
      (* The relations still connected to [a] without the cut. *)
      let side =
        let rec reach_in seen = function
          | [] -> seen
          | x :: todo ->
            let next =
              List.filter_map
                (fun (p, q, _) ->
                  if p = x && not (List.mem q seen) then Some q
                  else if q = x && not (List.mem p seen) then Some p
                  else None)
                rest
            in
            reach_in (next @ seen) (next @ todo)
        in
        reach_in [ a ] [ a ]
      in
      let inside (p, q, _) = List.mem p side && List.mem q side in
      let l = build side (List.filter inside rest) in
      let r =
        build
          (List.filter (fun x -> not (List.mem x side)) rels)
          (List.filter (fun e -> not (inside e)) rest)
      in
      if W.Rng.bool rng then Algebra.Join (cond, l, r)
      else Algebra.Join (cond, r, l)
  in
  let tree = build rels edges in
  let out = Algebra.output tree in
  let kept =
    W.Rng.nonempty_subset rng ~p:0.6 (Attribute.Set.elements out)
  in
  Plan.of_algebra
    (if List.length kept = Attribute.Set.cardinal out then tree
     else Algebra.Project (Attribute.Set.of_list kept, tree))

(* A structurally valid assignment, drawn without regard to any policy:
   a leaf reads any copy of its relation, and each join is local,
   regular, a semi-join, a coordinator join or a proxy join. *)
let random_assignment rng catalog servers plan =
  let third_party = ref false in
  let rec go a (n : Plan.node) =
    let set master a = Planner.Assignment.set n.id master a in
    match n.op with
    | Plan.Leaf s ->
      let copies =
        Result.get_ok (Catalog.servers_of catalog (Schema.name s))
      in
      let at = W.Rng.choose rng copies in
      (set (Planner.Assignment.executor at) a, at)
    | Plan.Project (_, c) | Plan.Select (_, c) ->
      let a, at = go a c in
      (set (Planner.Assignment.executor at) a, at)
    | Plan.Join (_, l, r) ->
      let a, lat = go a l in
      let a, rat = go a r in
      let master, other =
        if W.Rng.bool rng then (lat, rat) else (rat, lat)
      in
      let outsiders =
        List.filter
          (fun s -> not (Server.equal s lat || Server.equal s rat))
          servers
      in
      (match W.Rng.int rng 4 with
       | 0 -> (set (Planner.Assignment.executor master) a, master)
       | 1 ->
         ( set (Planner.Assignment.executor ~slave:other master) a,
           master )
       | 2 ->
         let t = W.Rng.choose rng servers in
         ( set
             (Planner.Assignment.executor ~slave:other ~coordinator:t master)
             a,
           master )
       | _ when outsiders <> [] ->
         third_party := true;
         let p = W.Rng.choose rng outsiders in
         (set (Planner.Assignment.executor p) a, p)
       | _ -> (set (Planner.Assignment.executor master) a, master))
  in
  let a, _ = go Planner.Assignment.empty (Plan.root plan) in
  (a, !third_party)

type case = {
  sys : W.System_gen.t;
  policy : Authz.Policy.t;
  plan : Plan.t;
  instances : string -> Relation.t option;
  servers : Server.t list;
  helpers : Server.t list;
}

(* Two servers beyond the relations' own, which store nothing: the
   helpers a third-party join may enlist. *)
let case_of seed =
  let rng = W.Rng.make ~seed in
  let relations = 3 + (seed mod 3) in
  let sys =
    W.System_gen.generate ~replication:0.4 rng ~relations
      ~servers:(relations + 2) ~extra:1
      ~topology:
        (W.Rng.choose rng
           W.System_gen.[ Chain; Star; Random { extra_edges = 1 } ])
  in
  let policy =
    W.Authz_gen.generate rng ~density:(W.Rng.choose rng [ 0.3; 0.7; 1.0 ]) sys
  in
  let plan = bushy_plan rng sys ~joins:(1 + W.Rng.int rng 3) in
  let instances =
    W.Data_gen.instances rng ~rows:(3 + W.Rng.int rng 6) ~domain_scale:0.5
      ~null_share:0.2 sys
  in
  let servers = W.System_gen.servers sys in
  let stores = Catalog.servers sys.catalog in
  let helpers =
    List.filter (fun s -> not (Server.Set.mem s stores)) servers
  in
  (rng, { sys; policy; plan; instances; servers; helpers })

(* ------------------------------------------------------------------ *)
(* One comparison.                                                     *)

type run = {
  result : (Engine.outcome, Engine.error) result;
  observed : (int * int) list;
  events : string;
}

let run_with engine fault_plan =
  let fault = Fault.start fault_plan in
  let observed = ref [] in
  let observe id v = observed := (id, Relation.cardinality v) :: !observed in
  let result = engine ~fault ~observe in
  {
    result;
    observed = List.rev !observed;
    events = Fmt.str "%a" Fmt.(list Fault.pp_event) (Fault.events fault);
  }

let describe = function
  | Ok (o : Engine.outcome) ->
    Fmt.str "ok: %d rows at %a, %d messages, %d steps"
      (Relation.cardinality o.result)
      Server.pp o.location
      (Network.message_count o.network)
      o.steps
  | Error e -> Fmt.str "error: %a" Engine.pp_error e

let agree ~what (compiled : run) (twin : run) =
  let same =
    Interp.equal_result compiled.result twin.result
    && compiled.observed = twin.observed
    && String.equal compiled.events twin.events
  in
  if not same then
    QCheck.Test.fail_reportf "%s: compiled %s / interpreted %s" what
      (describe compiled.result) (describe twin.result)

let variant rng case =
  let executor =
    if W.Rng.flip rng 0.3 then Some (module Batch.Exec : Exec.S) else None
  in
  let bloom = if W.Rng.flip rng 0.3 then Some (1 + W.Rng.int rng 8) else None in
  let fault_plan =
    if W.Rng.flip rng 0.5 then Fault.random_plan rng ~servers:case.servers
    else Fault.reliable
  in
  let deadline =
    if W.Rng.flip rng 0.3 then Some (W.Rng.int rng 40) else None
  in
  (executor, bloom, fault_plan, deadline)

let compare_runs ~what ~request case ?executor ?bloom ?deadline ~third_party
    fault_plan assignment =
  let compiled =
    run_with
      (fun ~fault ~observe ->
        Engine.execute ~third_party ?executor ?bloom ~fault ?deadline ~observe
          case.sys.catalog ~instances:case.instances case.plan assignment)
      fault_plan
  in
  let twin =
    run_with
      (fun ~fault ~observe ->
        Interp.execute ~third_party ?executor ?bloom ~fault ?deadline ~observe
          case.sys.catalog ~instances:case.instances case.plan assignment)
      fault_plan
  in
  agree ~what compiled twin;
  match compiled.result with
  | Ok o ->
    if not (Test_audit.agrees ~request case.policy o.network) then
      QCheck.Test.fail_reportf "%s: the keyed audit disagrees" what
  | Error _ -> ()

(* Random assignments: structure, protocols, executors, Bloom and
   faults, policy aside. *)
let prop_random_assignments =
  QCheck.Test.make ~count:150
    ~name:"compiled = interpreted on random assignments"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng, case = case_of seed in
      for _ = 1 to 3 do
        let assignment, third_party =
          random_assignment rng case.sys.catalog case.servers case.plan
        in
        let executor, bloom, fault_plan, deadline = variant rng case in
        compare_runs ~what:(Printf.sprintf "seed %d" seed) ~request:seed case
          ?executor ?bloom ?deadline ~third_party fault_plan assignment
      done;
      true)

(* Planned assignments, third-party rescues included, compiled against
   their certificate: the certificate must cover every transmission
   (Bloom's reduced operand aside), the run must equal the
   interpreter's, and its keyed audit must be clean. *)
let prop_certified_plans =
  QCheck.Test.make ~count:120
    ~name:"certified programs = interpreted, audit clean"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng, case = case_of seed in
      match
        Planner.Third_party.plan ~helpers:case.helpers case.sys.catalog
          case.policy case.plan
      with
      | Error _ -> true
      | Ok { assignment; rescues; _ } -> (
        let third_party = rescues <> [] in
        match
          Analysis.Certificate.certify case.sys.catalog case.policy case.plan
            assignment
        with
        | Error e -> QCheck.Test.fail_reportf "seed %d: certify: %s" seed e
        | Ok None -> QCheck.Test.fail_reportf "seed %d: no certificate" seed
        | Ok (Some certificate) ->
          let executor, bloom, fault_plan, deadline = variant rng case in
          let program =
            match
              Engine.compile ~third_party ?executor ?bloom ~certificate
                case.sys.catalog ~instances:case.instances case.plan
                assignment
            with
            | Ok p -> p
            | Error e ->
              QCheck.Test.fail_reportf "seed %d: compile: %a" seed
                Engine.pp_error e
          in
          let compiled =
            run_with
              (fun ~fault ~observe ->
                Engine.run ~fault ?deadline ~observe program)
              fault_plan
          in
          let twin =
            run_with
              (fun ~fault ~observe ->
                Interp.execute ~third_party ?executor ?bloom ~fault ?deadline
                  ~observe case.sys.catalog ~instances:case.instances
                  case.plan assignment)
              fault_plan
          in
          agree ~what:(Printf.sprintf "certified seed %d" seed) compiled twin;
          (match compiled.result with
           | Ok o ->
             if not (Distsim.Audit.is_clean case.policy o.network) then
               QCheck.Test.fail_reportf "seed %d: certified run not clean" seed;
             if not (Test_audit.agrees ~request:seed case.policy o.network)
             then QCheck.Test.fail_reportf "seed %d: keyed audit disagrees" seed
           | Error _ -> ());
          (* A program is run as often as it is served: a second run
             under the same schedule repeats the first exactly. *)
          let again =
            run_with
              (fun ~fault ~observe ->
                Engine.run ~fault ?deadline ~observe program)
              fault_plan
          in
          agree ~what:(Printf.sprintf "rerun seed %d" seed) again twin;
          true))

(* ------------------------------------------------------------------ *)
(* One verdict per assignment.                                         *)

(* What each structural check says of an assignment: ["ok"], or its
   error. Safety's flows, the compiled engine and the script compiler
   read the one Figure-5 decoder; the interpreter keeps its own case
   analysis, so agreement here tests the decoder against a twin. *)
let verdicts ~third_party catalog ~instances plan assignment =
  let say pp = function Ok _ -> "ok" | Error e -> Fmt.str "%a" pp e in
  [
    ( "Safety.flows",
      say Planner.Safety.pp_error
        (Planner.Safety.flows ~third_party catalog plan assignment) );
    ( "Engine.compile",
      say Engine.pp_error
        (Engine.compile ~third_party catalog ~instances plan assignment) );
    ( "Script.of_assignment",
      say Planner.Safety.pp_error
        (Planner.Script.of_assignment ~third_party catalog plan assignment) );
    ( "Interpreter",
      say Engine.pp_error
        (Interp.execute ~third_party catalog ~instances plan assignment) );
  ]

(* Example 2.2 assigned as in Figure 7 except n1 := [S_D, S_H] via S_D.
   S_D executes neither operand of n1 (n2 runs at S_N, n3 at S_H), so
   the join is invalid in either mode, and an invalid join is no
   third-party rescue. *)
let test_one_verdict () =
  let module M = Scenario.Medical in
  let plan = M.example_plan () in
  let fig7 =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok { assignment; _ } -> assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  let assignment =
    Planner.Assignment.set 1
      (Planner.Assignment.executor ~slave:M.s_h ~coordinator:M.s_d M.s_d)
      fig7
  in
  List.iter
    (fun third_party ->
      List.iter
        (fun (who, verdict) ->
          Alcotest.(check string)
            (Printf.sprintf "%s (third_party %b)" who third_party)
            "join n1: master is neither operand's executor" verdict)
        (verdicts ~third_party M.catalog ~instances:M.instances plan
           assignment))
    [ false; true ];
  Alcotest.(check (list string))
    "no rescue" []
    (List.map
       (Fmt.str "%a" Planner.Third_party.pp_rescue)
       (Planner.Third_party.rescues_of plan assignment))

(* [random_assignment] with one join's executor redrawn: master, slave
   and coordinator from every server, slave and coordinator each
   present or absent, and the unary nodes above the join following its
   master. Every structural check must give the same verdict, and an
   accepted assignment must run alike compiled and interpreted. *)
let prop_perturbed_join =
  QCheck.Test.make ~count:200
    ~name:"one verdict on a perturbed join"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng, case = case_of seed in
      let assignment, _ =
        random_assignment rng case.sys.catalog case.servers case.plan
      in
      let joins =
        List.filter
          (fun (n : Plan.node) ->
            match n.op with Plan.Join _ -> true | _ -> false)
          (Plan.nodes case.plan)
      in
      let n = W.Rng.choose rng joins in
      let pick () = W.Rng.choose rng case.servers in
      let maybe () = if W.Rng.bool rng then Some (pick ()) else None in
      let master = pick () in
      let slave = maybe () in
      let coordinator = maybe () in
      let assignment =
        Planner.Assignment.set n.id
          (Planner.Assignment.executor ?slave ?coordinator master)
          assignment
      in
      let rec above id asg =
        match
          List.find_opt
            (fun (p : Plan.node) ->
              List.exists (fun (c : Plan.node) -> c.id = id) (Plan.children p))
            (Plan.nodes case.plan)
        with
        | Some ({ op = Plan.Project _ | Plan.Select _; _ } as p) ->
          above p.id
            (Planner.Assignment.set p.id
               (Planner.Assignment.executor master)
               asg)
        | _ -> asg
      in
      let assignment = above n.id assignment in
      let third_party = W.Rng.bool rng in
      let vs =
        verdicts ~third_party case.sys.catalog ~instances:case.instances
          case.plan assignment
      in
      let first = snd (List.hd vs) in
      if List.exists (fun (_, v) -> not (String.equal v first)) vs then
        QCheck.Test.fail_reportf "seed %d: %s" seed
          (String.concat "; "
             (List.map (fun (who, v) -> who ^ ": " ^ v) vs));
      if String.equal first "ok" then
        compare_runs
          ~what:(Printf.sprintf "perturbed seed %d" seed)
          ~request:seed case ~third_party Fault.reliable assignment;
      true)

let suite =
  [
    Alcotest.test_case "Example 2.2: one verdict for an invalid n1" `Quick
      test_one_verdict;
    Helpers.qcheck prop_random_assignments;
    Helpers.qcheck prop_certified_plans;
    Helpers.qcheck prop_perturbed_join;
  ]
