(* The front-door API: Federation.t serves queries end to end.

   A mixed batch of queries hits the medical federation: feasible ones
   execute (with plan caching), blocked ones come back with the policy
   advisor's repair proposal, and the operator-facing artifacts — the
   service counters and the compliance window, the last
   [Federation.audit_window] flows with the rule that admitted each —
   are printed at the end.

   Run with: dune exec examples/federation_service.exe *)

module M = Scenario.Medical

let queries =
  [
    (* The paper's Example 2.2, twice: the second hit is plan-cached. *)
    M.example_query_sql;
    M.example_query_sql;
    (* A narrower feasible query. *)
    "SELECT Patient, Plan FROM Insurance JOIN Nat_registry ON \
     Holder=Citizen JOIN Hospital ON Citizen=Patient";
    (* Blocked: nobody may join Insurance with Hospital directly under
       this SELECT list. *)
    "SELECT Plan FROM Insurance JOIN Hospital ON Holder=Patient";
    (* Malformed. *)
    "SELECT FROM nowhere";
  ]

let () =
  let fed =
    Federation.create ~catalog:M.catalog ~policy:M.policy
      ~instances:M.instances ()
  in
  List.iteri
    (fun i sql ->
      Fmt.pr "@.=== query %d ===@.%s@." (i + 1) sql;
      match Federation.query fed sql with
      | Ok r ->
        Fmt.pr "-> %d rows at %a (%d messages, %d bytes%s)@."
          (Relalg.Relation.cardinality r.result)
          Relalg.Server.pp r.location r.messages r.bytes
          (if r.from_cache then ", cached plan" else "")
      | Error e -> Fmt.pr "-> %a@." Federation.pp_error e)
    queries;

  Fmt.pr "@.=== service counters ===@.%a@." Federation.pp_stats
    (Federation.stats fed);

  Fmt.pr "@.=== compliance window (%d of %d flows audited) ===@."
    (List.length (Federation.audit_log fed))
    (Federation.audited fed);
  List.iter
    (fun (e : Distsim.Audit.entry) ->
      match e.admitted_by with
      | Some rule ->
        Fmt.pr "  %a -> %a: admitted by %a@." Relalg.Server.pp e.sender
          Relalg.Server.pp e.receiver Authz.Authorization.pp rule
      | None -> ())
    (Federation.audit_log fed)
