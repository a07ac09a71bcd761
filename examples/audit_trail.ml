(* The runtime audit as the last line of defence.

   Runs the paper's query with its safe assignment (audit clean, every
   flow recorded with its sender, receiver, join node, size and the
   authorization admitting it; the record keeps no data, the rule
   bounds what the receiver saw), then tampers with
   the assignment — forcing a regular join that ships the whole
   Nat_registry to the insurance server — and shows the audit catching
   the unauthorized flow that the planner would never have produced.

   Run with: dune exec examples/audit_trail.exe *)

module M = Scenario.Medical

let () =
  let plan = M.example_plan () in
  let { Planner.Safe_planner.assignment; _ } =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r
    | Error f -> Fmt.failwith "%a" Planner.Safe_planner.pp_failure f
  in

  Fmt.pr "=== Safe execution: every flow with its admitting rule ===@.";
  (match
     Distsim.Engine.execute M.catalog ~instances:M.instances plan assignment
   with
   | Error e -> Fmt.failwith "%a" Distsim.Engine.pp_error e
   | Ok { network; _ } ->
     (match Distsim.Audit.run M.policy network with
      | Ok entries ->
        List.iter (fun e -> Fmt.pr "%a@.@." Distsim.Audit.pp_entry e) entries
      | Error _ -> assert false));

  (* Tamper: execute the top join (n1) as a regular join mastered at
     S_I — the insurance company would receive data it may not see. *)
  Fmt.pr "=== Tampered assignment: top join mastered at S_I ===@.";
  let tampered =
    assignment
    |> Planner.Assignment.set 0 (Planner.Assignment.executor M.s_i)
    |> Planner.Assignment.set 1 (Planner.Assignment.executor M.s_i)
    |> Planner.Assignment.set 2 (Planner.Assignment.executor M.s_i)
    |> Planner.Assignment.set 5 (Planner.Assignment.executor M.s_n)
  in
  Fmt.pr "planner-side check rejects it: %b@."
    (not (Planner.Safety.is_safe M.catalog M.policy plan tampered));
  match
    Distsim.Engine.execute M.catalog ~instances:M.instances plan tampered
  with
  | Error e ->
    Fmt.pr "engine refuses to run it: %a@." Distsim.Engine.pp_error e
  | Ok { network; _ } ->
    (match Distsim.Audit.run M.policy network with
     | Ok _ -> Fmt.pr "audit unexpectedly clean?!@."
     | Error violations ->
       Fmt.pr "audit reports %d violation(s):@.%a@." (List.length violations)
         Fmt.(list ~sep:(any "@\n") Distsim.Audit.pp_violation)
         violations)
