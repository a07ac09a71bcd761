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
  | Replan_unsafe of { dead : Server.t list }
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

let execute ?(helpers = []) ?executor ?bloom ?max_failovers ?close_under
    ?closed ?deadline ?(excluded = []) ?seed catalog policy ~instances ~fault
    plan =
  let injector = Fault.start fault in
  (* One chase handle for the whole recovery: either the caller's
     long-lived handle (the federation shares its service handle, so
     grants already chased there are visible here) or one built from
     [close_under]; its closure is computed lazily on first use and
     then shared by the planner of every failover attempt and by every
     independent safety re-proof, instead of re-closing the policy per
     attempt. When a handle is given, [policy] must be the {e base}
     policy it closes over — certificates check against the base. *)
  let closed =
    match closed with
    | Some _ as c -> c
    | None ->
      Option.map
        (fun joins -> Authz.Chase.closed_policy ~joins policy)
        close_under
  in
  let max_failovers =
    match max_failovers with
    | Some m -> m
    | None -> Server.Set.cardinal (Catalog.servers catalog)
  in
  let segments = ref [] in
  (* newest first *)
  let failovers = ref [] in
  (* [excluded] may arrive non-empty: quarantined servers the caller's
     circuit breakers have already ruled out. They count against the
     failover limit exactly like servers that died during this query. *)
  let pre_excluded = List.length excluded in
  let excluded = ref excluded in
  let merged () = Network.concat (List.rev !segments) in
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
  let over_deadline () =
    match deadline with
    | Some budget when Fault.steps injector > budget -> Some budget
    | _ -> None
  in
  (* [pending] carries the death that triggered this replan; the
     failover record is completed once the replacement assignment
     exists. *)
  let rec attempt i ~pending =
    match over_deadline () with
    | Some budget ->
      (* The budget ran out before this attempt could even replan:
         abandon rather than plan work we cannot run. *)
      degraded (Deadline_exceeded { spent = Fault.steps injector; budget })
    | None ->
      (match (seed, i, pending) with
       | Some (assignment, certificate, rescues), 1, None ->
         (* The caller seeded attempt 1 with an assignment it already
            certified (the federation's plan cache, whose epoch gate
            just passed): execute it directly, exactly as the clean
            path executes cached plans without a fresh proof. Any
            failover replans — and re-proves — from scratch. *)
         run i ~assignment ~certificate ~rescues
           ~third_party:(rescues <> [])
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
      let third_party = rescues <> [] in
      (* Proof-carrying replan: emit a certificate for the assignment
         and have the independent linear checker validate it before a
         single message of this attempt is emitted. Open-mode policies
         are outside the certificate language, so they carry [None]. *)
      let certified =
        if Authz.Policy.is_open policy then Ok None
        else
          match
            Analysis.Certificate.emit_plan ~third_party ?closed catalog
              policy plan assignment
          with
          | Error detail -> Error detail
          | Ok cert -> (
            let joins =
              match closed with Some c -> Authz.Chase.joins c | None -> []
            in
            match
              Analysis.Certificate.check_plan ~joins catalog policy plan cert
            with
            | [] -> Ok (Some cert)
            | f :: _ -> Error (Fmt.str "%a" Analysis.Certificate.pp_failure f))
      in
      let certificate =
        match certified with Ok c -> c | Error _ -> None
      in
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
      (* Re-prove Definition 4.2 with the independent checker before a
         single message of this attempt is emitted. *)
      (match
         Planner.Safety.check ~third_party ?closed catalog policy plan
           assignment
       with
       | Error _ -> degraded (Replan_unsafe { dead = !excluded })
       | Ok _flows when Result.is_error certified ->
         let detail =
           match certified with Error d -> d | Ok _ -> assert false
         in
         degraded (Replan_uncertified { dead = !excluded; detail })
       | Ok _flows -> run i ~assignment ~certificate ~rescues ~third_party)
  and run i ~assignment ~certificate ~rescues ~third_party =
    let network = Network.create () in
    segments := network :: !segments;
    let partial = ref [] in
    let observe id value =
      partial := (id, value) :: List.remove_assoc id !partial
    in
    let done_so_far () =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) !partial
    in
    let remaining =
      Option.map (fun b -> max 0 (b - Fault.steps injector)) deadline
    in
    match
      Engine.execute ~third_party ?executor ?bloom ~fault:injector ~network
        ?deadline:remaining ~observe catalog ~instances plan assignment
    with
    | Ok (o : Engine.outcome) ->
      let log = merged () in
      Ok
        {
          result = o.Engine.result;
          location = o.Engine.location;
          outcome = o;
          log;
          assignment;
          certificate;
          rescues;
          failovers = List.rev !failovers;
          excluded = !excluded;
          attempts = i;
          retries = Network.retransmissions log;
          delay = Fault.total_delay injector;
          steps = Fault.steps injector;
          schedule = Fault.events injector;
        }
    | Error (Engine.Server_down { server; node; permanent }) ->
      if List.length !excluded - pre_excluded >= max_failovers then
        degraded ~failed_node:node ~partial:(done_so_far ())
          (Failover_limit { dead = !excluded @ [ server ] })
      else begin
        excluded := !excluded @ [ server ];
        attempt (i + 1) ~pending:(Some (server, permanent, node, i))
      end
    | Error (Engine.Transfer_failed { sender; receiver; node; attempts }) ->
      degraded ~failed_node:node ~partial:(done_so_far ())
        (Transfer_failed { sender; receiver; node; attempts })
    | Error (Engine.Deadline_exceeded { node; _ }) ->
      let budget = match deadline with Some b -> b | None -> 0 in
      degraded ~failed_node:node ~partial:(done_so_far ())
        (Deadline_exceeded { spent = Fault.steps injector; budget })
    | Error e ->
      degraded ~partial:(done_so_far ())
        (Execution_failed (Fmt.str "%a" Engine.pp_error e))
  in
  attempt 1 ~pending:None

let wire_time model network =
  List.fold_left
    (fun acc m -> acc +. Des.wire model m)
    0.0 (Network.messages network)

let makespan model fplan plan (r : recovered) =
  let backoff = Fault.backoff fplan in
  let final =
    (Des.makespan ~backoff model plan r.assignment r.outcome).Des.makespan
  in
  (* Aborted attempts: their emissions cost wire time even though the
     work was discarded. *)
  let aborted =
    wire_time model r.log -. wire_time model r.outcome.Engine.network
  in
  final +. aborted

let pp_failover ppf f =
  Fmt.pf ppf "attempt %d: %a died at n%d (%s); replanned without it"
    f.attempt Server.pp f.dead f.failed_node
    (if f.permanent then "permanent" else "outage outlasted retries")

let pp_reason ppf = function
  | No_safe_replan { dead; failed_at } ->
    Fmt.pf ppf "no safe replan without %a (blocked at n%d)"
      Fmt.(list ~sep:comma Server.pp)
      dead failed_at
  | Replan_unsafe { dead } ->
    Fmt.pf ppf "replan without %a failed the independent safety re-proof"
      Fmt.(list ~sep:comma Server.pp)
      dead
  | Replan_uncertified { dead; detail } ->
    Fmt.pf ppf "replan without %a failed certification: %s"
      Fmt.(list ~sep:comma Server.pp)
      dead detail
  | Transfer_failed { sender; receiver; node; attempts } ->
    Fmt.pf ppf "link %a -> %a never delivered at n%d (%d attempts)" Server.pp
      sender Server.pp receiver node attempts
  | Failover_limit { dead } ->
    Fmt.pf ppf "failover limit reached; dead: %a"
      Fmt.(list ~sep:comma Server.pp)
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
