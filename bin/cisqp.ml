(* cisqp — command-line front end.

   Subcommands:
     repro  [FIG]          reproduce the paper's figures
     plan   SQL            plan a query (trace + assignment)
     run    SQL            plan, execute, audit, estimate makespan
     advise SQL            explain an infeasible query, propose grants
     sweep  ...            feasibility-vs-density synthetic experiment

   The federation is a built-in scenario (-s medical | supply-chain |
   research) or loaded from files (--schema/--authz/--data, in the
   formats of lib/text). *)

open Cmdliner
open Relalg
module D = Analysis.Diagnostic

type federation = {
  name : string;
  catalog : Catalog.t;
  policy : Authz.Policy.t;
  instances : string -> Relation.t option;
  helpers : Server.t list;
  joins : Joinpath.Cond.t list;  (** the schema's join graph *)
}

let medical =
  {
    name = "medical";
    catalog = Scenario.Medical.catalog;
    policy = Scenario.Medical.policy;
    instances = Scenario.Medical.instances;
    helpers = [];
    joins = Scenario.Medical.join_graph;
  }

let supply_chain =
  {
    name = "supply-chain";
    catalog = Scenario.Supply_chain.catalog;
    policy = Scenario.Supply_chain.policy;
    instances = Scenario.Supply_chain.instances;
    helpers = [ Scenario.Supply_chain.s_b ];
    joins = Scenario.Supply_chain.join_graph;
  }

let research =
  {
    name = "research";
    catalog = Scenario.Research.catalog;
    policy = Scenario.Research.policy;
    instances = Scenario.Research.instances;
    helpers = [ Scenario.Research.s_t ];
    joins = Scenario.Research.join_graph;
  }

let scenarios = [ medical; supply_chain; research ]

let scenario_conv =
  let parse s =
    match List.find_opt (fun sc -> sc.name = s) scenarios with
    | Some sc -> Ok sc
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown scenario %S (try: %s)" s
             (String.concat ", " (List.map (fun sc -> sc.name) scenarios))))
  in
  Arg.conv (parse, fun ppf sc -> Fmt.string ppf sc.name)

let scenario_arg =
  Arg.(
    value
    & opt scenario_conv medical
    & info [ "s"; "scenario" ] ~docv:"SCENARIO"
        ~doc:
          "Built-in federation: $(b,medical), $(b,supply-chain) or \
           $(b,research).")

let schema_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "schema" ] ~docv:"FILE"
        ~doc:"Schema file (see lib/text/schema_text.mli for the format).")

let authz_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "authz" ] ~docv:"FILE" ~doc:"Authorization file (Figure-3 notation).")

let data_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "data" ] ~docv:"FILE" ~doc:"Data bundle (@relation sections).")

let helpers_arg =
  Arg.(
    value & opt_all string []
    & info [ "helper" ] ~docv:"SERVER"
        ~doc:"Additional third-party server (with --schema federations).")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt = Fmt.kstr (fun msg -> Fmt.epr "error: %s@." msg; exit 1) fmt

(* Exit-code contract (documented in the README): 0 clean, 1 semantic
   failure (infeasible plan, audit violation, lint errors, certificate
   check failure), 2 invalid usage or input. Usage errors are reported
   as positioned CISQP042 diagnostics, like CISQP040/041 before them,
   so scripts can grep one uniform format off stderr. *)
let usage_error loc fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%a@." D.pp (D.make "CISQP042" loc "%s" msg);
      exit 2)
    fmt

(* Service-option errors (non-positive deadlines/quotas) get their own
   code so operators can distinguish a misconfigured resilience knob
   from general bad usage; same positioned one-line format, same
   exit 2. *)
let service_error loc fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%a@." D.pp (D.make "CISQP043" loc "%s" msg);
      exit 2)
    fmt

(* Resolve the federation from flags: files override the scenario. *)
let federation_of scenario schema authz data extra_helpers =
  match schema with
  | None ->
    { scenario with
      helpers =
        scenario.helpers @ List.map Server.make extra_helpers }
  | Some schema_path ->
    let sys =
      match Text.Schema_text.parse (read_file schema_path) with
      | Ok s -> s
      | Error e ->
        usage_error (D.Flag "--schema") "%s: %a" schema_path
          Text.Line_reader.pp_error e
    in
    let policy =
      match authz with
      | None -> usage_error (D.Flag "--authz") "--schema requires --authz"
      | Some path ->
        (match Text.Authz_text.parse sys.catalog (read_file path) with
         | Ok p -> p
         | Error e ->
           usage_error (D.Flag "--authz") "%s: %a" path
             Text.Line_reader.pp_error e)
    in
    let instances =
      match data with
      | None -> fun _ -> None
      | Some path ->
        (match Text.Data_text.parse sys.catalog (read_file path) with
         | Ok i -> i
         | Error e ->
           usage_error (D.Flag "--data") "%s: %a" path
             Text.Line_reader.pp_error e)
    in
    {
      name = schema_path;
      catalog = sys.catalog;
      policy;
      instances;
      helpers = List.map Server.make extra_helpers;
      joins = sys.join_graph;
    }

let federation_term =
  Term.(
    const federation_of $ scenario_arg $ schema_file $ authz_file $ data_file
    $ helpers_arg)

let sql_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SQL" ~doc:"The query, e.g. 'SELECT ... FROM ... JOIN ...'.")

let third_party_flag =
  Arg.(
    value & flag
    & info [ "third-party" ]
        ~doc:"Allow third-party joins (footnote 3) using the helpers.")

let no_semijoins_flag =
  Arg.(
    value & flag
    & info [ "no-semijoins" ]
        ~doc:"Restrict the planner to regular joins (baseline).")

let optimize_flag =
  Arg.(
    value & flag
    & info [ "optimize" ]
        ~doc:
          "Explore alternative join orders (two-step optimization) and keep \
           the cheapest feasible one.")

(* ------------------------------------------------------------------ *)

let repro_cmd =
  let fig =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"FIG" ~doc:"One of fig1..fig5, fig7, all.")
  in
  let run fig =
    let module F = Scenario.Paper_figures in
    match fig with
    | "fig1" -> print_endline (F.fig1_schema ())
    | "fig2" -> print_endline (F.fig2_query_plan ())
    | "fig3" -> print_endline (F.fig3_authorizations ())
    | "fig4" -> print_endline (F.fig4_profile_rules ())
    | "fig5" -> print_endline (F.fig5_execution_modes ())
    | "fig6" | "fig7" -> print_endline (F.fig7_algorithm_trace ())
    | "all" -> print_endline (F.all ())
    | other ->
      usage_error (D.Argv 1) "unknown figure %S (try: fig1..fig5, fig7, all)"
        other
  in
  Cmd.v
    (Cmd.info "repro" ~doc:"Reproduce the figures of the paper.")
    Term.(const run $ fig)

(* Malformed SQL is user input, not an internal failure: report it as
   the registered CISQP040 diagnostic and exit 2 (1 is reserved for
   semantic failures — infeasible plans, audit violations). The
   [Invalid_argument] guard is defensive: the parser's contract is to
   return [Error], and any residual exception must not crash the CLI
   with a backtrace. *)
let parse_query fed sql =
  let result =
    try Sql_parser.parse fed.catalog sql
    with Invalid_argument msg ->
      Error (Sql_parser.Syntax { offset = 0; message = msg })
  in
  match result with
  | Ok q -> q
  | Error e ->
    let module D = Analysis.Diagnostic in
    Fmt.epr "%a@."
      D.pp
      (D.make "CISQP040" D.Whole "%a in %S" Sql_parser.pp_error e sql);
    exit 2

let chase_flag =
  Arg.(
    value & flag
    & info [ "chase" ]
        ~doc:
          "Close the policy under the chase (Section 3.2) over the schema's \
           join graph before planning. Derived authorizations then admit \
           assignments the explicit rules alone would reject. The closure \
           is computed once per invocation.")

(* Returns the (possibly closed) federation and, when the chase ran,
   the handle: its trace is what lets --certify replay chase-derived
   witnesses against the pre-chase base policy. *)
let with_chase chase fed =
  if not chase then (fed, None)
  else if Authz.Policy.is_open fed.policy then
    usage_error (D.Flag "--chase") "--chase applies to closed policies only"
  else
    let handle = Authz.Chase.closed_policy ~joins:fed.joins fed.policy in
    ({ fed with policy = Authz.Chase.closure handle }, Some handle)

(* The policy certificates are checked against: the pre-chase one when
   the chase ran. *)
let base_policy fed = function
  | Some handle -> Authz.Chase.policy handle
  | None -> fed.policy

let certify_flag =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Emit a proof-carrying certificate for the chosen assignment and \
           validate it with the independent linear-time checker against the \
           base (pre-chase) policy. A check failure is reported as CISQP050 \
           and exits 1.")

let cert_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cert-out" ] ~docv:"FILE"
        ~doc:
          "With --certify, also write the certificate as JSON to $(docv) \
           (re-checkable later with $(b,cisqp certify)).")

(* Prove a planned assignment before any of its messages is sent, as
   [Federation.query] does on a cache miss. Returns the certificate,
   checked against the base policy, or [None] under an open-mode
   policy. *)
let certify_plan fed handle plan assignment =
  match
    Analysis.Certificate.certify ?closed:handle fed.catalog
      (base_policy fed handle) plan assignment
  with
  | Ok certificate -> certificate
  | Error detail ->
    Fmt.epr "%a@." D.pp
      (D.make "CISQP050" D.Whole "certification failed: %s" detail);
    exit 1

(* Report (and optionally persist) a certificate [certify_plan] or the
   recovery supervisor already emitted and checked. [None] is a proof
   too: under an open-mode policy the assignment was checked flow by
   flow against the denials, and only a --cert-out file cannot be
   written. *)
let report_certificate cert_out = function
  | None -> (
    match cert_out with
    | Some path ->
      Fmt.epr "%a@." D.pp
        (D.make "CISQP051" D.Whole
           "open-mode policies are outside the certificate language; no \
            certificate to write to %s"
           path);
      exit 1
    | None ->
      Fmt.pr
        "Certificate: none needed, proved safe under the open-mode policy \
         (every flow checked against its denials)@.")
  | Some (cert : Analysis.Certificate.plan_cert) ->
    Option.iter
      (fun path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Analysis.Certificate.plan_to_json cert);
            output_char oc '\n'))
      cert_out;
    Fmt.pr "Certificate: OK (%d rule(s), %d flow(s) checked)@."
      (List.length cert.rules) (List.length cert.flows)

let plan_query fed query ~third_party ~no_semijoins ~optimize =
  let config =
    {
      Planner.Safe_planner.default_config with
      allow_semijoins = not no_semijoins;
    }
  in
  let helpers = if third_party then fed.helpers else [] in
  if optimize then begin
    let model = Planner.Cost.uniform ~card:1000.0 in
    let t = Planner.Optimizer.optimize ~config model fed.catalog fed.policy query in
    match t.Planner.Optimizer.best with
    | Some { order; plan; outcome = Planner.Optimizer.Feasible (assignment, cost) } ->
      Fmt.pr "join order: %a (estimated cost %.0f)@."
        Fmt.(list ~sep:(any " > ") string)
        order cost;
      (plan, assignment, None)
    | Some { outcome = Planner.Optimizer.Infeasible _; _ } | None ->
      die "no feasible join order"
  end
  else
    let plan = Query.to_plan query in
    match Planner.Safe_planner.plan ~config ~helpers fed.catalog fed.policy plan with
    | Ok { assignment; trace } -> (plan, assignment, Some trace)
    | Error f -> die "%a" Planner.Safe_planner.pp_failure f

let plan_cmd =
  let dot_flag =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit Graphviz DOT of the assigned plan (clusters per server, \
             dashed red data flows) instead of text.")
  in
  let script_flag =
    Arg.(
      value & flag
      & info [ "script" ]
          ~doc:
            "Emit the per-server execution script (SQL + transfers) instead \
             of the planner trace.")
  in
  let run fed sql third_party no_semijoins optimize chase certify cert_out dot
      script =
    if certify && optimize then
      usage_error (D.Flag "--certify")
        "--certify and --optimize cannot be combined: certificates replay \
         the canonical plan shape derived from the SQL";
    let fed, handle = with_chase chase fed in
    let query = parse_query fed sql in
    let plan, assignment, trace =
      plan_query fed query ~third_party ~no_semijoins ~optimize
    in
    if script then
      match Planner.Script.of_assignment ~third_party fed.catalog plan assignment with
      | Ok s -> Fmt.pr "%a@." Planner.Script.pp s
      | Error e -> die "%a" Planner.Safety.pp_error e
    else if dot then
      print_string
        (Planner.Dot.assignment_to_dot ~third_party fed.catalog plan
           assignment)
    else begin
      Fmt.pr "Query tree plan:@.%a@.@." Plan.pp plan;
      Option.iter
        (fun t -> Fmt.pr "%a@.@." Planner.Safe_planner.pp_trace t)
        trace;
      Fmt.pr "Assignment:@.%a@." Planner.Assignment.pp assignment;
      if certify then
        report_certificate cert_out (certify_plan fed handle plan assignment)
    end
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Find a safe executor assignment for a query.")
    Term.(
      const run $ federation_term $ sql_arg $ third_party_flag
      $ no_semijoins_flag $ optimize_flag $ chase_flag $ certify_flag
      $ cert_out_arg $ dot_flag $ script_flag)

let run_cmd =
  let makespan_flag =
    Arg.(
      value & flag
      & info [ "makespan" ]
          ~doc:"Estimate the makespan under a 1 ms / 10 MB/s network model.")
  in
  let crash_arg =
    Arg.(
      value & opt_all string []
      & info [ "crash" ] ~docv:"SERVER[@STEP]"
          ~doc:
            "Crash $(docv) permanently at the given logical step (default \
             0). Repeatable. Implies fault-injected execution.")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:"Probability each transmission attempt is lost.")
  in
  let corrupt_arg =
    Arg.(
      value & opt float 0.0
      & info [ "corrupt" ] ~docv:"P"
          ~doc:"Probability each transmission attempt arrives corrupted.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed of the fault injector's RNG stream (default 0).")
  in
  let retries_arg =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retransmission attempts after the first (default 5).")
  in
  let deadline_arg =
    Arg.(
      value & opt (some int) None
      & info [ "deadline" ] ~docv:"N"
          ~doc:
            "Logical-step budget for the execution; exceeding it abandons \
             the query with a typed deadline-exceeded outcome.")
  in
  let executor_arg =
    Arg.(
      value
      & opt (enum [ ("naive", `Naive); ("batch", `Batch) ]) `Naive
      & info [ "executor" ] ~docv:"NAME"
          ~doc:
            "Physical executor for every operator: $(b,naive) (the \
             positional row operators of the relation, the default) or \
             $(b,batch) (the columnar batch executor). Results are \
             identical.")
  in
  let bloom_arg =
    Arg.(
      value & opt (some int) None
      & info [ "bloom" ] ~docv:"BITS"
          ~doc:
            "Ship semi-join reducers as Bloom filters of $(docv) bits per \
             key instead of the projected join column. The result stays \
             exact; only the wire bytes change.")
  in
  let parse_crash spec =
    match String.index_opt spec '@' with
    | None -> Distsim.Fault.crash (Server.make spec) ~at:0
    | Some i ->
      let name = String.sub spec 0 i in
      (match
         int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
       with
       | Some at -> Distsim.Fault.crash (Server.make name) ~at
       | None ->
         usage_error (D.Flag "--crash")
           "bad --crash %S (expected SERVER or SERVER@STEP)" spec)
  in
  let fault_of crashes drop corrupt fault_seed retries =
    if crashes = [] && drop = 0.0 && corrupt = 0.0 && fault_seed = None
       && retries = None then None
    else
      Some
        (Distsim.Fault.make
           ~crashes:(List.map parse_crash crashes)
           ~default_link:{ Distsim.Fault.drop; corrupt }
           ?max_retries:retries
           ~seed:(Option.value fault_seed ~default:0)
           ())
  in
  let report_audit fed network =
    match Distsim.Audit.run fed.policy network with
    | Ok entries ->
      Fmt.pr "@.Audit: clean (%d flows authorized)@." (List.length entries)
    | Error violations ->
      Fmt.pr "@.Audit: %d VIOLATIONS@.%a@." (List.length violations)
        Fmt.(list ~sep:(any "@\n") Distsim.Audit.pp_violation)
        violations
  in
  let run fed sql third_party no_semijoins optimize chase certify cert_out
      makespan crashes drop corrupt fault_seed retries deadline exec_choice
      bloom =
    if certify && optimize then
      usage_error (D.Flag "--certify")
        "--certify and --optimize cannot be combined: certificates replay \
         the canonical plan shape derived from the SQL";
    (match deadline with
     | Some d when d <= 0 ->
       service_error (D.Flag "--deadline")
         "expected a positive logical-step budget, got %d" d
     | _ -> ());
    (match bloom with
     | Some b when b < 1 ->
       service_error (D.Flag "--bloom")
         "expected at least 1 bit per key, got %d" b
     | _ -> ());
    let executor =
      match exec_choice with
      | `Naive -> (module Relalg.Exec.Reference : Relalg.Exec.S)
      | `Batch -> (module Relalg.Batch.Exec : Relalg.Exec.S)
    in
    let fault = fault_of crashes drop corrupt fault_seed retries in
    (* The supervisor replans every failover itself, with the default
       planner configuration, so these planning flags would be silently
       dropped after the first death. *)
    if Option.is_some fault && (no_semijoins || optimize) then begin
      let flag = if optimize then "--optimize" else "--no-semijoins" in
      usage_error (D.Flag flag)
        "%s cannot be combined with fault injection (--crash, --drop, \
         --corrupt, --fault-seed, --retries): the recovery supervisor plans \
         the query itself"
        flag
    end;
    let fed, handle = with_chase chase fed in
    let query = parse_query fed sql in
    let plan, assignment, _ =
      plan_query fed query ~third_party ~no_semijoins ~optimize
    in
    let certificate = certify_plan fed handle plan assignment in
    let rescues = Planner.Third_party.rescues_of plan assignment in
    let fault = Option.value fault ~default:Distsim.Fault.reliable in
    (* One path for every run, the one [Federation.query] takes: the
       certified assignment seeds attempt 1, and any failover is
       replanned and re-certified against the base policy. *)
    let outcome =
      Distsim.Recover.execute
        ~helpers:(if third_party then fed.helpers else [])
        ~executor ?bloom ?closed:handle ?deadline
        ~seed:(assignment, certificate, rescues)
        fed.catalog (base_policy fed handle) ~instances:fed.instances ~fault
        plan
    in
    (match outcome with
     | Ok { failovers; _ } | Error { failovers; _ } ->
       List.iter
         (fun f -> Fmt.pr "Failover: %a@." Distsim.Recover.pp_failover f)
         failovers);
    match outcome with
    | Error d ->
      Fmt.pr "Degraded: %a@." Distsim.Recover.pp_reason d.reason;
      if d.partial <> [] then
        Fmt.pr "Partial sub-results: %s@."
          (String.concat ", "
             (List.map (fun (id, _) -> Printf.sprintf "n%d" id) d.partial));
      report_audit fed d.log;
      exit 1
    | Ok r ->
      Fmt.pr
        "Execution: %d attempt(s), %d retransmission(s), %.3f s of backoff@.@."
        r.attempts r.retries r.delay;
      Fmt.pr "Assignment:@.%a@.@.Result (at %a):@.%a@.@.Data flows:@.%a@."
        Planner.Assignment.pp r.assignment Server.pp r.location Relation.pp
        r.result Distsim.Network.pp r.log;
      report_audit fed r.log;
      if makespan then
        Fmt.pr "@.Makespan (1 ms latency, 10 MB/s):@.%a@."
          Distsim.Des.pp_schedule
          (Distsim.Recover.makespan (Distsim.Des.uniform ()) fault plan r);
      if certify then report_certificate cert_out r.certificate
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Plan a query, certify the plan, execute it under the recovery \
          supervisor and audit the flows. With \
          --crash/--drop/--corrupt/--fault-seed/--retries the execution runs \
          under deterministic fault injection, and the supervisor replans \
          every failover itself: --no-semijoins and --optimize are refused \
          there.")
    Term.(
      const run $ federation_term $ sql_arg $ third_party_flag
      $ no_semijoins_flag $ optimize_flag $ chase_flag $ certify_flag
      $ cert_out_arg $ makespan_flag $ crash_arg $ drop_arg $ corrupt_arg
      $ fault_seed_arg $ retries_arg $ deadline_arg $ executor_arg $ bloom_arg)

let advise_cmd =
  let run fed sql =
    let query = parse_query fed sql in
    let plan = Query.to_plan query in
    match Planner.Safe_planner.plan fed.catalog fed.policy plan with
    | Ok _ -> Fmt.pr "the query is already feasible; nothing to grant@."
    | Error failure ->
      Fmt.pr "blocked at n%d; options:@.%a@.@."
        failure.Planner.Safe_planner.failed_at
        Fmt.(
          list ~sep:(any "@\n")
            Planner.Advisor.pp_option)
        (Planner.Advisor.explain fed.catalog fed.policy plan failure);
      (match Planner.Advisor.advise fed.catalog fed.policy plan with
       | None -> Fmt.pr "no repair found@."
       | Some proposal ->
         Fmt.pr "proposed repair:@.%a@." Planner.Advisor.pp_proposal proposal)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Explain why a query cannot be planned safely and propose minimal \
          additional authorizations.")
    Term.(const run $ federation_term $ sql_arg)

let impact_cmd =
  let sqls =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SQL"
          ~doc:"Queries of the workload (one per positional argument).")
  in
  let run fed sqls =
    let plans =
      List.map (fun sql -> Query.to_plan (parse_query fed sql)) sqls
    in
    let impacts = Planner.Revocation.impact fed.catalog fed.policy plans in
    Fmt.pr "Impact of revoking each rule on %d quer%s:@." (List.length plans)
      (if List.length plans = 1 then "y" else "ies");
    List.iter
      (fun i -> Fmt.pr "  %a@." Planner.Revocation.pp_impact i)
      impacts;
    (* Per-query support sets. *)
    List.iter2
      (fun sql plan ->
        match Planner.Safe_planner.plan fed.catalog fed.policy plan with
        | Error _ -> Fmt.pr "@.%s: infeasible@." sql
        | Ok { assignment; _ } ->
          (* The rules its certificate cites: one witness per flow. *)
          (match
             Analysis.Certificate.certify fed.catalog fed.policy plan
               assignment
           with
           | Ok cert ->
             Fmt.pr "@.%s@.  relies on:@.%a@." sql
               Fmt.(
                 option
                   (list ~sep:(any "@\n")
                      (fun ppf (r : Analysis.Certificate.rule) ->
                        Fmt.pf ppf "    %a" Authz.Authorization.pp r.auth)))
               (Option.map (fun c -> c.Analysis.Certificate.rules) cert)
           | Error msg -> Fmt.pr "@.%s: %s@." sql msg))
      sqls plans
  in
  Cmd.v
    (Cmd.info "impact"
       ~doc:
         "Revocation analysis: which rules a workload's safety relies on, \
          and what breaks if each is revoked.")
    Term.(const run $ federation_term $ sqls)

let chase_cmd =
  let run fed =
    if Authz.Policy.is_open fed.policy then
      die "the chase applies to closed policies only"
    else begin
      (* Derive the join graph from the built-in scenarios or from the
         policy's own paths. *)
      let joins =
        List.concat_map
          (fun (a : Authz.Authorization.t) -> Joinpath.conditions a.path)
          (Authz.Policy.authorizations fed.policy)
        |> List.sort_uniq Joinpath.Cond.compare
      in
      let closed = Authz.Chase.close ~joins fed.policy in
      let derived =
        List.filter
          (fun a ->
            not
              (List.exists
                 (Authz.Authorization.equal a)
                 (Authz.Policy.authorizations fed.policy)))
          (Authz.Policy.authorizations closed)
      in
      Fmt.pr "%d explicit rules, %d derived by the chase:@."
        (Authz.Policy.cardinality fed.policy)
        (List.length derived);
      List.iter (fun a -> Fmt.pr "  %a@." Authz.Authorization.pp a) derived
    end
  in
  Cmd.v
    (Cmd.info "chase"
       ~doc:
         "Close the policy under derivation (Section 3.2) and print the \
          implied authorizations.")
    Term.(const run $ federation_term)

let certify_cmd =
  let cert_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CERT"
          ~doc:"Certificate JSON file (written by $(b,--cert-out).)")
  in
  let certify_sql_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SQL" ~doc:"The query the certificate is for.")
  in
  let revalidate_flag =
    Arg.(
      value & flag
      & info [ "revalidate" ]
          ~doc:
            "Skip the policy-epoch pin and replay the evidence against the \
             current policy — the re-validation entry point for cached \
             plans after a policy change.")
  in
  let stale fmt =
    Fmt.kstr
      (fun msg ->
        Fmt.epr "%a@." D.pp (D.make "CISQP051" D.Whole "%s" msg);
        exit 2)
      fmt
  in
  let run fed cert_path sql revalidate =
    let module C = Analysis.Certificate in
    let contents =
      match read_file cert_path with
      | s -> s
      | exception Sys_error msg -> stale "cannot read certificate: %s" msg
    in
    let cert =
      match C.plan_of_json contents with
      | Ok cert -> cert
      | Error msg -> stale "%s: not a plan certificate: %s" cert_path msg
    in
    (* The plan shape is canonical from the SQL (Query.to_plan is
       deterministic and policy-independent), so the checker replays
       the certificate against a freshly derived tree — no planner
       involved. Chase-derived witnesses carry their own derivation
       chains, so no --chase is needed either. *)
    let query = parse_query fed sql in
    let plan = Query.to_plan query in
    match
      C.check_plan ~revalidate ~joins:fed.joins fed.catalog fed.policy plan
        cert
    with
    | [] ->
      Fmt.pr "Certificate: OK (%d rule(s), %d flow(s) checked%s)@."
        (List.length cert.C.rules)
        (List.length cert.C.flows)
        (if revalidate then ", revalidated against the current policy"
         else "")
    | failures ->
      List.iter (fun d -> Fmt.epr "%a@." D.pp d) (C.to_diagnostics failures);
      exit 1
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Check a stored plan certificate against a federation's policy \
          with the independent linear-time checker. Exit 0: the evidence \
          proves the plan safe under this policy; 1: check failed \
          (CISQP050); 2: unusable input (CISQP051 or usage).")
    Term.(
      const run $ federation_term $ cert_arg $ certify_sql_arg
      $ revalidate_flag)

let lint_cmd =
  let sqls =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SQL"
          ~doc:
            "Queries to plan and lint (plan pass + script verification). \
             With no queries, only the policy is analysed.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,text) or $(b,json).")
  in
  let strict_flag =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Treat warnings as errors for the exit code (CI gate).")
  in
  let chase_budget =
    Arg.(
      value & opt int 20_000
      & info [ "chase-budget" ] ~docv:"N"
          ~doc:"Rule budget for each chase fixpoint of the redundancy pass.")
  in
  let passes =
    Arg.(
      value
      & opt_all
          (enum
             [
               ("policy", `Policy);
               ("plan", `Plan);
               ("inference", `Inference);
               ("all", `All);
             ])
          []
      & info [ "pass" ] ~docv:"PASS"
          ~doc:
            "Analysis pass to run (repeatable): $(b,policy), $(b,plan) \
             (plan lint + script verification), $(b,inference) \
             (cumulative-knowledge saturation), or $(b,all). Default: \
             $(b,policy) and $(b,plan).")
  in
  let saturation_budget =
    Arg.(
      value
      & opt int Analysis.Knowledge.default_budget
      & info [ "saturation-budget" ] ~docv:"N"
          ~doc:
            "Maximum profiles per server knowledge base in the inference \
             pass; hitting it emits CISQP031.")
  in
  let random_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "random" ] ~docv:"SEED"
          ~doc:
            "Lint a generated workload instead of a federation: a random \
             system, policy and queries from lib/workload (overrides \
             $(b,-s)/$(b,--schema)).")
  in
  let relations =
    Arg.(
      value & opt int 5
      & info [ "relations" ] ~doc:"Relations of the generated system.")
  in
  let query_joins =
    Arg.(value & opt int 2 & info [ "joins" ] ~doc:"Joins per generated query.")
  in
  let density =
    Arg.(
      value & opt float 0.5
      & info [ "density" ] ~doc:"Authorization density of the generated policy.")
  in
  let queries =
    Arg.(
      value & opt int 3 & info [ "queries" ] ~doc:"Number of generated queries.")
  in
  let run fed sqls third_party no_semijoins format strict certify chase_budget
      passes saturation_budget random_seed relations query_joins density
      queries =
    (* Budgets are cardinalities: zero or negative values have no
       sensible fixpoint semantics (a chase would overflow its budget
       on the seed rules; a saturation would report every server
       exhausted). Reject them up front like malformed SQL: a
       positioned CISQP041 on stderr and exit 2. *)
    let require_positive flag value =
      if value < 1 then begin
        Fmt.epr "%a@." D.pp
          (D.make "CISQP041" (D.Flag flag)
             "expected a positive profile/rule budget, got %d" value);
        exit 2
      end
    in
    require_positive "--chase-budget" chase_budget;
    require_positive "--saturation-budget" saturation_budget;
    let passes =
      match passes with
      | [] -> [ `Policy; `Plan ]
      | ps when List.mem `All ps -> [ `Policy; `Plan; `Inference ]
      | ps -> ps
    in
    let want p = List.mem p passes in
    let catalog, policy, joins, helpers, plans =
      match random_seed with
      | Some seed ->
        let rng = Workload.Rng.make ~seed in
        let sys =
          Workload.System_gen.generate rng ~relations ~servers:relations
            ~extra:2 ~topology:Workload.System_gen.Chain
        in
        let policy = Workload.Authz_gen.generate rng ~density sys in
        let plans =
          List.init queries (fun _ ->
              Workload.Query_gen.generate_plan rng ~joins:query_joins sys)
          |> List.filter_map Fun.id
        in
        (sys.catalog, policy, sys.join_graph, [], plans)
      | None ->
        let plans =
          List.map (fun sql -> Query.to_plan (parse_query fed sql)) sqls
        in
        (fed.catalog, fed.policy, fed.joins, fed.helpers, plans)
    in
    let policy_diags =
      if want `Policy then Analysis.Policy_lint.lint ~joins ~chase_budget policy
      else []
    in
    let config =
      {
        Planner.Safe_planner.default_config with
        allow_semijoins = not no_semijoins;
      }
    in
    let helpers = if third_party then helpers else [] in
    (* Plan each query once; the plan pass and the inference pass both
       consume the results. *)
    let planned =
      if want `Plan || want `Inference then
        List.map
          (fun plan ->
            (plan, Planner.Safe_planner.plan ~config ~helpers catalog policy plan))
          plans
      else []
    in
    let unplannable_diags =
      List.filter_map
        (fun (plan, result) ->
          match result with
          | Error _ ->
            Some
              (D.make "CISQP022" D.Whole
                 "no safe assignment for query %s; plan and script checks \
                  skipped"
                 (Plan.to_string plan))
          | Ok _ -> None)
        planned
    in
    let plan_diags =
      if not (want `Plan) then []
      else
        List.concat_map
          (fun (plan, result) ->
            match result with
            | Error _ -> []
            | Ok { Planner.Safe_planner.assignment; _ } -> (
              let lint =
                Analysis.Plan_lint.lint ~third_party catalog policy plan
                  assignment
              in
              match
                Planner.Script.of_assignment ~third_party catalog plan
                  assignment
              with
              | Error e ->
                lint
                @ [
                    D.make "CISQP005" D.Whole "script compilation failed: %a"
                      Planner.Safety.pp_error e;
                  ]
              | Ok script ->
                lint @ Analysis.Script_verifier.verify catalog policy script))
          planned
    in
    let batches =
      if not (want `Inference) then []
      else
        List.filter_map
          (fun (plan, result) ->
            match result with
            | Error _ -> None
            | Ok { Planner.Safe_planner.assignment; _ } -> (
              match
                Planner.Safety.flows ~third_party catalog plan assignment
              with
              | Ok flows -> Some flows
              | Error _ -> None))
          planned
    in
    let inference_diags =
      if not (want `Inference) then []
      else
        Analysis.Knowledge.lint ~budget:saturation_budget ~joins policy
          (Analysis.Knowledge.of_flow_batches catalog batches)
    in
    (* --certify: each planned query is proved by [Certificate.certify],
       as a served query is on a cache miss (under an open-mode policy,
       by checking every flow against the denials); each CISQP030 leak
       verdict gets a join-tree counterexample, checked against the
       actual delivery log and rendered for the user. Failures of
       either proof surface as CISQP050. A leak certificate cites the
       rules a closed policy grants, so under an open-mode policy the
       leak half reports CISQP051 instead. *)
    let module C = Analysis.Certificate in
    let certificate_diags, leak_witnesses =
      if not certify then ([], [])
      else begin
        let plan_cert_diags =
          if not (want `Plan) then []
          else
            List.filter_map
              (fun (plan, result) ->
                match result with
                | Error _ -> None
                | Ok { Planner.Safe_planner.assignment; _ } -> (
                  match C.certify catalog policy plan assignment with
                  | Ok _ -> None
                  | Error detail ->
                    Some
                      (D.make "CISQP050" D.Whole
                         "certification failed for query %s: %s"
                         (Plan.to_string plan) detail)))
              planned
        in
        let leak_cert_diags, witnesses =
          if not (want `Inference) then ([], [])
          else if Authz.Policy.is_open policy then
            ( [
                D.make "CISQP051" D.Whole
                  "open-mode policies are outside the certificate \
                   language; no leak witness can be certified";
              ],
              [] )
          else begin
            let deliveries = C.deliveries_of_batches batches in
            let cur =
              Analysis.Knowledge.cursor ~budget:saturation_budget ~joins
                (Analysis.Knowledge.of_flow_batches catalog batches)
            in
            let snap = Analysis.Knowledge.snapshot cur in
            let diags = ref [] and wits = ref [] in
            List.iter
              (fun (l : Analysis.Knowledge.leak) ->
                let (it : Analysis.Knowledge.item) = l.item in
                match
                  Analysis.Knowledge.explain cur catalog l.server it.profile
                with
                | None ->
                  diags :=
                    D.make "CISQP050" D.Whole
                      "no join-tree counterexample reconstructed for the \
                       leak of %a at %a"
                      Authz.Profile.pp it.profile Server.pp l.server
                    :: !diags
                | Some tree -> (
                  let cert =
                    {
                      C.epoch = C.epoch policy;
                      server = l.server;
                      profile = it.profile;
                      tree;
                    }
                  in
                  match
                    C.check_leak ~joins catalog policy ~deliveries cert
                  with
                  | [] -> wits := (l.server, tree) :: !wits
                  | failures ->
                    diags := C.to_diagnostics failures @ !diags))
              (Analysis.Knowledge.leaks policy
                 snap.Analysis.Knowledge.knowledge);
            (List.rev !diags, List.rev !wits)
          end
        in
        (plan_cert_diags @ leak_cert_diags, witnesses)
      end
    in
    let all =
      policy_diags @ unplannable_diags @ plan_diags @ inference_diags
      @ certificate_diags
    in
    (match format with
     | `Text ->
       Fmt.pr "%a@." D.pp_report all;
       List.iter
         (fun (server, tree) ->
           Fmt.pr "leak witness at %a: %a@." Server.pp server C.pp_tree tree)
         leak_witnesses
     | `Json ->
       ignore leak_witnesses;
       print_endline (D.to_json all));
    let failing (d : D.t) =
      match d.D.severity with
      | D.Error -> true
      | D.Warning -> strict
      | D.Info -> false
    in
    if List.exists failing all then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: lint the policy, plan the given queries and \
          verify their compiled execution scripts independently of the \
          planner. Exits non-zero when errors (or, with $(b,--strict), \
          warnings) are found.")
    Term.(
      const run $ federation_term $ sqls $ third_party_flag $ no_semijoins_flag
      $ format_arg $ strict_flag $ certify_flag $ chase_budget $ passes
      $ saturation_budget $ random_seed $ relations $ query_joins $ density
      $ queries)

let sweep_cmd =
  let relations =
    Arg.(
      value & opt int 6
      & info [ "relations" ] ~doc:"Relations in the system.")
  in
  let joins =
    Arg.(value & opt int 3 & info [ "joins" ] ~doc:"Joins per query.")
  in
  let seeds =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~doc:"Random systems per density.")
  in
  let run relations joins seeds =
    Fmt.pr "density feasible@.";
    List.iter
      (fun density ->
        let feasible = ref 0 and total = ref 0 in
        for seed = 1 to seeds do
          let rng = Workload.Rng.make ~seed in
          let sys =
            Workload.System_gen.generate rng ~relations ~servers:relations
              ~extra:2 ~topology:Workload.System_gen.Chain
          in
          let policy = Workload.Authz_gen.generate rng ~density sys in
          match Workload.Query_gen.generate_plan rng ~joins sys with
          | None -> ()
          | Some plan ->
            incr total;
            if Planner.Safe_planner.feasible sys.catalog policy plan then
              incr feasible
        done;
        Fmt.pr "%.2f    %.3f@." density
          (float_of_int !feasible /. float_of_int (max 1 !total)))
      [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Feasibility vs authorization density on random systems.")
    Term.(const run $ relations $ joins $ seeds)

(* ------------------------------------------------------------------ *)

(* `cisqp serve` — replay a grant/revoke-interleaved query stream
   against one long-lived Federation.t, the multi-tenant service layer
   in miniature. Script lines: `query SQL`, `grant RULE`,
   `revoke RULE` (Figure-3 notation), `stats`, `deadline N|off`,
   `quota TENANT RATE [BURST]`, `tenant NAME|off`, `health`, blank and
   `#` comments. Exits 1 if any response tripped a safety invariant
   (audit violation or certificate check failure), else 0. *)
let serve_cmd =
  let script_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SCRIPT"
          ~doc:
            "Script to replay: one $(b,query)/$(b,grant)/$(b,revoke)/\
             $(b,stats)/$(b,deadline)/$(b,quota)/$(b,tenant)/$(b,health) \
             command per line.")
  in
  let cache_capacity_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Prepared-plan cache bound (LRU eviction beyond it); 0 disables \
             caching (plan-per-call).")
  in
  let deadline_arg =
    Arg.(
      value & opt (some int) None
      & info [ "deadline" ] ~docv:"N"
          ~doc:
            "Default per-query deadline in logical steps (the $(b,deadline) \
             script line overrides it).")
  in
  let quota_arg =
    Arg.(
      value & opt (some float) None
      & info [ "quota" ] ~docv:"RATE"
          ~doc:
            "Service-wide admission rate in requests per tick (token \
             bucket); requests beyond it are shed with a typed rejection.")
  in
  let run fed chase capacity deadline quota script_path =
    if capacity < 0 then
      usage_error (D.Flag "--cache-capacity") "cache capacity must be >= 0";
    if chase && Authz.Policy.is_open fed.policy then
      usage_error (D.Flag "--chase") "--chase applies to closed policies only";
    (match deadline with
     | Some d when d <= 0 ->
       service_error (D.Flag "--deadline")
         "expected a positive logical-step budget, got %d" d
     | _ -> ());
    (match quota with
     | Some r when r <= 0.0 ->
       service_error (D.Flag "--quota")
         "expected a positive admission rate, got %g" r
     | _ -> ());
    let service =
      Federation.create ~catalog:fed.catalog ~policy:fed.policy
        ~helpers:fed.helpers
        ?close_under:(if chase then Some fed.joins else None)
        ~cache_capacity:capacity ~instances:fed.instances ()
    in
    Option.iter
      (fun rate ->
        Federation.set_admission service ~rate ~burst:(Float.max 1.0 rate))
      quota;
    let cur_deadline = ref deadline in
    let cur_tenant = ref None in
    let parse_rule lineno what text =
      match Text.Authz_text.parse fed.catalog text with
      | Error e ->
        usage_error (D.Step lineno) "%s: %a" what Text.Line_reader.pp_error e
      | Ok p ->
        if Authz.Policy.is_open p then
          usage_error (D.Step lineno) "%s: DENY rules have no epochs" what;
        (match Authz.Policy.authorizations p with
         | [ a ] -> a
         | rules ->
           usage_error (D.Step lineno) "%s: expected exactly one rule, got %d"
             what (List.length rules))
    in
    let tripped = ref false in
    let lines = String.split_on_char '\n' (read_file script_path) in
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line = String.trim raw in
        if line = "" || String.length line >= 1 && line.[0] = '#' then ()
        else
          let cmd, rest =
            match String.index_opt line ' ' with
            | Some j ->
              ( String.sub line 0 j,
                String.trim
                  (String.sub line j (String.length line - j)) )
            | None -> (line, "")
          in
          match cmd with
          | "query" ->
            (match
               Federation.query ?deadline:!cur_deadline ?tenant:!cur_tenant
                 service rest
             with
             | Ok r ->
               Fmt.pr "l%d: served %d row(s) at %a (%s, epoch %d)@." lineno
                 (Relation.cardinality r.result)
                 Server.pp r.location
                 (if r.from_cache then "cached" else "planned")
                 (Federation.epoch service)
             | Error e ->
               (match e with
                | Federation.Audit_violation _ | Federation.Uncertified _ ->
                  tripped := true
                | _ -> ());
               Fmt.pr "l%d: error: %a@." lineno Federation.pp_error e)
          | "grant" ->
            let a = parse_rule lineno "grant" rest in
            (try
               Federation.grant service a;
               Fmt.pr "l%d: granted %a (epoch %d)@." lineno
                 Authz.Authorization.pp a (Federation.epoch service)
             with Invalid_argument msg -> usage_error (D.Step lineno) "%s" msg)
          | "revoke" ->
            let a = parse_rule lineno "revoke" rest in
            let in_base = Authz.Policy.mem a (Federation.base_policy service) in
            let before = (Federation.stats service).Federation.invalidations in
            (try
               Federation.revoke service a;
               let after =
                 (Federation.stats service).Federation.invalidations
               in
               if in_base then
                 Fmt.pr "l%d: revoked %a (epoch %d, %d plan(s) invalidated)@."
                   lineno Authz.Authorization.pp a
                   (Federation.epoch service)
                   (after - before)
               else
                 Fmt.pr
                   "l%d: %a is not in the base policy, nothing revoked \
                    (epoch %d)@."
                   lineno Authz.Authorization.pp a
                   (Federation.epoch service)
             with Invalid_argument msg -> usage_error (D.Step lineno) "%s" msg)
          | "stats" ->
            Fmt.pr "l%d:@.%a@." lineno Federation.pp_stats
              (Federation.stats service)
          | "deadline" ->
            (match rest with
             | "off" ->
               cur_deadline := None;
               Fmt.pr "l%d: deadline off@." lineno
             | n -> (
               match int_of_string_opt n with
               | Some d when d > 0 ->
                 cur_deadline := Some d;
                 Fmt.pr "l%d: deadline %d step(s)@." lineno d
               | _ ->
                 service_error (D.Step lineno)
                   "deadline: expected a positive step budget or 'off', got %S"
                   n))
          | "quota" ->
            (match String.split_on_char ' ' rest with
             | tenant :: rate :: burst
               when tenant <> ""
                    && (burst = [] || List.length burst = 1) -> (
               let rate_f = float_of_string_opt rate in
               let burst_f =
                 match burst with
                 | [] ->
                   Option.map (fun r -> Float.max 1.0 r) rate_f
                 | [ b ] -> float_of_string_opt b
                 | _ -> None
               in
               match (rate_f, burst_f) with
               | Some r, Some b when r >= 0.0 && b > 0.0 ->
                 Federation.set_quota service tenant ~rate:r ~burst:b;
                 Fmt.pr "l%d: quota %s: %g/tick (burst %g)@." lineno tenant r
                   b
               | _ ->
                 service_error (D.Step lineno)
                   "quota: expected TENANT RATE [BURST] with RATE >= 0 and \
                    BURST > 0")
             | _ ->
               service_error (D.Step lineno)
                 "quota: expected TENANT RATE [BURST]")
          | "tenant" ->
            (match rest with
             | "off" ->
               cur_tenant := None;
               Fmt.pr "l%d: tenant off@." lineno
             | "" ->
               service_error (D.Step lineno)
                 "tenant: expected a tenant name or 'off'"
             | name ->
               cur_tenant := Some name;
               Fmt.pr "l%d: tenant %s@." lineno name)
          | "health" ->
            let snaps = Federation.health_report service in
            Fmt.pr "l%d: %d server(s), %d quarantined@." lineno
              (List.length snaps)
              (List.length (Federation.quarantined_servers service));
            List.iter
              (fun s -> Fmt.pr "  %a@." Distsim.Health.pp_snapshot s)
              snaps
          | other ->
            usage_error (D.Step lineno)
              "unknown command %S (try: query, grant, revoke, stats, \
               deadline, quota, tenant, health)"
              other)
      lines;
    if !tripped then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Replay a grant/revoke-interleaved query stream against one \
          long-lived federation (plan cache, policy epochs, incremental \
          re-validation, deadlines, quotas, per-server health).")
    Term.(
      const run $ federation_term $ chase_flag $ cache_capacity_arg
      $ deadline_arg $ quota_arg $ script_arg)

let () =
  (* Honour CISQP_VERBOSE=1 for engine/network debug traces. *)
  (match Sys.getenv_opt "CISQP_VERBOSE" with
   | Some ("1" | "true") ->
     Logs.set_reporter (Logs.format_reporter ());
     Logs.set_level (Some Logs.Debug)
   | _ -> ());
  let info =
    Cmd.info "cisqp" ~version:"1.0.0"
      ~doc:
        "Controlled information sharing in collaborative distributed query \
         processing (ICDCS 2008)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            repro_cmd; plan_cmd; run_cmd; advise_cmd; impact_cmd; chase_cmd;
            certify_cmd; lint_cmd; serve_cmd; sweep_cmd;
          ]))
