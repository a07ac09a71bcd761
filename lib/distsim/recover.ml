open Relalg

let src = Logs.Src.create "cisqp.recover" ~doc:"Fault recovery supervisor"

module Log = (val Logs.src_log src : Logs.LOG)

type failover = {
  attempt : int;
  dead : Server.t;
  permanent : bool;
  failed_node : int;
  assignment : Planner.Assignment.t;
  certificate : Analysis.Certificate.plan_cert option;
}

type reason =
  | No_safe_replan of { dead : Server.t list; failed_at : int }
  | Replan_uncertified of { dead : Server.t list; detail : string }
  | Transfer_failed of {
      sender : Server.t;
      receiver : Server.t;
      node : int;
      attempts : int;
    }
  | Failover_limit of { dead : Server.t list }
  | Deadline_exceeded of { spent : int; budget : int }
  | Execution_failed of string

type recovered = {
  result : Relation.t;
  location : Server.t;
  outcome : Engine.outcome;
  log : Network.t;
  assignment : Planner.Assignment.t;
  certificate : Analysis.Certificate.plan_cert option;
  rescues : Planner.Third_party.rescue list;
  failovers : failover list;
  excluded : Server.t list;
  attempts : int;
  retries : int;
  delay : float;
  steps : int;
  schedule : Fault.event list;
}

type degraded = {
  reason : reason;
  log : Network.t;
  failovers : failover list;
  partial : (int * Relation.t) list;
  failed_node : int option;
  excluded : Server.t list;
  schedule : Fault.event list;
}

type outcome = (recovered, degraded) result

let execute ?(helpers = []) ?executor ?bloom ?closed ?deadline ?(excluded = [])
    ?seed catalog policy ~instances ~fault plan =
  let injector = Fault.start fault in
  let segments = ref [] in
  (* newest first *)
  let failovers = ref [] in
  (* [excluded] may arrive non-empty: quarantined servers the caller's
     circuit breakers have already ruled out. Only servers that die
     during this query count against the failover limit. *)
  let pre_excluded = List.length excluded in
  let excluded = ref excluded in
  let merged () =
    match !segments with
    | [ only ] -> only
    | segs -> Network.concat (List.rev segs)
  in
  let degraded ?failed_node ?(partial = []) reason =
    Error
      {
        reason;
        log = merged ();
        failovers = List.rev !failovers;
        partial;
        failed_node;
        excluded = !excluded;
        schedule = Fault.events injector;
      }
  in
  (* [pending] carries the death that triggered this replan; the
     failover record is completed once the replacement assignment
     exists. *)
  let rec attempt i ~pending =
    match deadline with
    | Some budget when Fault.steps injector > budget ->
      (* The budget ran out before this attempt could even replan:
         abandon rather than plan work we cannot run. *)
      degraded (Deadline_exceeded { spent = Fault.steps injector; budget })
    | _ -> (
      match (seed, pending) with
      | Some program, None ->
        (* The caller seeded attempt 1 with a program compiled from an
           assignment it already certified (the federation's plan
           cache, whose epoch gate just passed): run it directly,
           without a fresh proof. Any failover replans — and proves —
           from scratch. *)
        run i program
      | _ -> replan i ~pending)
  and replan i ~pending =
    match
      Planner.Third_party.plan ~excluded:!excluded ?closed ~helpers catalog
        policy plan
    with
    | Error f ->
      degraded
        (No_safe_replan
           { dead = !excluded; failed_at = f.Planner.Third_party.failed_at })
    | Ok { assignment; rescues; _ } ->
      (* The replan's one proof, taken before a single message of this
         attempt is emitted. *)
      let certified =
        Analysis.Certificate.certify ?closed catalog policy plan assignment
      in
      let certificate = Result.value certified ~default:None in
      (match pending with
       | None -> ()
       | Some (dead, permanent, failed_node, died_at) ->
         Log.info (fun m ->
             m "failover %d: %a dead at n%d, replanned without it" died_at
               Server.pp dead failed_node);
         failovers :=
           {
             attempt = died_at;
             dead;
             permanent;
             failed_node;
             assignment;
             certificate;
           }
           :: !failovers);
      (match certified with
       | Error detail ->
         degraded (Replan_uncertified { dead = !excluded; detail })
       | Ok _ -> (
         (* Compiled after the proof, against it: a transmission the
            certificate does not cover never leaves. *)
         match
           Engine.compile ~third_party:(rescues <> []) ?executor ?bloom
             ?certificate catalog ~instances plan assignment
         with
         | Ok program -> run i program
         | Error e -> failed i ~partial:[] e))
  and run i program =
    let network = Network.create () in
    segments := network :: !segments;
    let partial = ref [] in
    (* Each node completes at most once per attempt. *)
    let observe id value = partial := (id, value) :: !partial in
    let remaining =
      Option.map (fun b -> max 0 (b - Fault.steps injector)) deadline
    in
    match
      Engine.run ~fault:injector ~network ?deadline:remaining ~observe program
    with
    | Ok (o : Engine.outcome) ->
      let log = merged () in
      Ok
        {
          result = o.Engine.result;
          location = o.Engine.location;
          outcome = o;
          log;
          assignment = Engine.assignment program;
          certificate = Engine.certificate program;
          rescues = Engine.rescues program;
          failovers = List.rev !failovers;
          excluded = !excluded;
          attempts = i;
          retries = Network.retransmissions log;
          delay = Fault.total_delay injector;
          steps = Fault.steps injector;
          schedule = Fault.events injector;
        }
    | Error e -> failed i ~partial:!partial e
  and failed i ~partial e =
    let partial = List.sort (fun (a, _) (b, _) -> Int.compare a b) partial in
    match e with
    | Engine.Server_down { server; node; permanent } ->
      (* No more failovers than the catalog has servers, worked out
         only here: a query in which nothing dies never pays for it. *)
      let max_failovers = Server.Set.cardinal (Catalog.servers catalog) in
      if List.length !excluded - pre_excluded >= max_failovers then
        degraded ~failed_node:node ~partial
          (Failover_limit { dead = !excluded @ [ server ] })
      else begin
        excluded := !excluded @ [ server ];
        attempt (i + 1) ~pending:(Some (server, permanent, node, i))
      end
    | Engine.Transfer_failed { sender; receiver; node; attempts } ->
      degraded ~failed_node:node ~partial
        (Transfer_failed { sender; receiver; node; attempts })
    | Engine.Deadline_exceeded { node; _ } ->
      let budget = match deadline with Some b -> b | None -> 0 in
      degraded ~failed_node:node ~partial
        (Deadline_exceeded { spent = Fault.steps injector; budget })
    | Engine.Structure _ | Engine.Missing_instance _
    | Engine.Stale_instance _ | Engine.Uncertified_flow _ ->
      degraded ~partial (Execution_failed (Fmt.str "%a" Engine.pp_error e))
  in
  attempt 1 ~pending:None

let wire_time model network =
  List.fold_left
    (fun acc m -> acc +. Des.wire model m)
    0.0 (Network.messages network)

let makespan model fplan plan (r : recovered) =
  let final =
    Des.makespan ~backoff:(Fault.backoff fplan) model plan r.assignment
      r.outcome
  in
  (* Aborted attempts: their emissions cost wire time even though the
     work was discarded, and the final attempt starts after them. *)
  let aborted =
    wire_time model r.log -. wire_time model r.outcome.Engine.network
  in
  {
    Des.finish = List.map (fun (id, t) -> (id, t +. aborted)) final.Des.finish;
    makespan = final.Des.makespan +. aborted;
  }

let pp_failover ppf f =
  Fmt.pf ppf "attempt %d: %a died at n%d (%s); replanned without it"
    f.attempt Server.pp f.dead f.failed_node
    (if f.permanent then "permanent" else "outage outlasted retries")

let pp_reason ppf = function
  | No_safe_replan { dead; failed_at } ->
    Fmt.pf ppf "no safe replan without %a (blocked at n%d)"
      Fmt.(list ~sep:(any ", ") Server.pp)
      dead failed_at
  | Replan_uncertified { dead; detail } ->
    Fmt.pf ppf "replan without %a failed certification: %s"
      Fmt.(list ~sep:(any ", ") Server.pp)
      dead detail
  | Transfer_failed { sender; receiver; node; attempts } ->
    Fmt.pf ppf "link %a -> %a never delivered at n%d (%d attempts)" Server.pp
      sender Server.pp receiver node attempts
  | Failover_limit { dead } ->
    Fmt.pf ppf "failover limit reached; dead: %a"
      Fmt.(list ~sep:(any ", ") Server.pp)
      dead
  | Deadline_exceeded { spent; budget } ->
    Fmt.pf ppf "deadline exceeded: %d logical steps spent, budget %d" spent
      budget
  | Execution_failed msg -> Fmt.pf ppf "execution failed: %s" msg

let pp_outcome ppf = function
  | Ok r ->
    Fmt.pf ppf
      "recovered at %a: %d attempt(s), %d failover(s), %d retransmission(s)"
      Server.pp r.location r.attempts
      (List.length r.failovers)
      r.retries
  | Error d ->
    Fmt.pf ppf "unrecoverable: %a (%d node(s) completed)" pp_reason d.reason
      (List.length d.partial)
