open Relalg

type cached = {
  c_key : string;
  c_plan : Plan.t;
  c_program : Distsim.Engine.program;
      (* the certified assignment, compiled against its certificate at
         the miss; both are read back through the program *)
  c_rule_ids : int list;
      (* interned ids of every base/derived rule the certificate's
         witnesses depend on — the revocation sensitivity set *)
  c_servers : Server.t list;
      (* every server the assignment routes through — the quarantine
         sensitivity set *)
  mutable c_epoch : int;  (* service epoch at last validation *)
  mutable c_used : int;  (* logical tick of last use, for LRU *)
}

type stats = {
  queries_served : int;
  infeasible : int;
  degraded : int;
  cache_hits : int;
  evictions : int;
  invalidations : int;
  epoch : int;
  total_messages : int;
  total_bytes : int;
  shed : int;
  quota_rejections : int;
  breaker_opens : int;
  quarantined : int;
  deadline_exceeded : int;
}

(* The compliance window: the last [audit_window] admitted flows, one
   preallocated array per field, written round-robin. A flow's fields
   are immediates or pointers to the catalog's servers and the policy's
   rules, so appending one allocates nothing that outlives the query. *)
let audit_window = 4096

type window = {
  w_request : int array;
  w_seq : int array;
  w_sender : Server.t array;
  w_receiver : Server.t array;
  w_join : int array;
  w_rule : Authz.Authorization.t array;  (* [no_rule] for [None] *)
  w_rows : int array;
  w_bytes : int array;
  mutable w_appended : int;  (* every flow ever appended *)
}

(* The filler of unwritten slots, and the rule slot of a flow admitted
   with no rule to cite (open-mode policies): told apart physically. *)
let no_server = Server.make "-"

let no_rule =
  Authz.Authorization.make_denial
    ~attrs:(Attribute.Set.singleton (Attribute.make ~relation:"-" "-"))
    ~path:Joinpath.empty no_server

let window () =
  {
    w_request = Array.make audit_window 0;
    w_seq = Array.make audit_window 0;
    w_sender = Array.make audit_window no_server;
    w_receiver = Array.make audit_window no_server;
    w_join = Array.make audit_window 0;
    w_rule = Array.make audit_window no_rule;
    w_rows = Array.make audit_window 0;
    w_bytes = Array.make audit_window 0;
    w_appended = 0;
  }

let append w (e : Distsim.Audit.entry) =
  let i = w.w_appended mod audit_window in
  w.w_request.(i) <- e.request;
  w.w_seq.(i) <- e.seq;
  w.w_sender.(i) <- e.sender;
  w.w_receiver.(i) <- e.receiver;
  w.w_join.(i) <- e.join;
  w.w_rule.(i) <- Option.value e.admitted_by ~default:no_rule;
  w.w_rows.(i) <- e.rows;
  w.w_bytes.(i) <- e.bytes;
  w.w_appended <- w.w_appended + 1

let entry_at w i : Distsim.Audit.entry =
  {
    request = w.w_request.(i);
    seq = w.w_seq.(i);
    sender = w.w_sender.(i);
    receiver = w.w_receiver.(i);
    join = w.w_join.(i);
    admitted_by = (if w.w_rule.(i) == no_rule then None else Some w.w_rule.(i));
    rows = w.w_rows.(i);
    bytes = w.w_bytes.(i);
  }

type t = {
  catalog : Catalog.t;
  mutable policy : Authz.Policy.t;  (* the serving policy: closure when chased *)
  mutable chase : Authz.Chase.closed option;
  joins : Joinpath.Cond.t list;
  helpers : Server.t list;
  instances : string -> Relation.t option;
  cache_capacity : int;  (* 0 disables caching: plan-per-call mode *)
  plan_cache : (string, cached) Hashtbl.t;
  sql_memo : (string, string) Hashtbl.t;
      (* raw SQL text -> canonical key: pure parse memoization for the
         hot path. Never goes stale — the catalog is fixed, so a text
         always parses to the same canonical key regardless of policy
         epoch — but it is bounded (see [memo_remember]). *)
  mutable service_epoch : int;
  mutable last_revoke_epoch : int;
  mutable tick : int;
  flows : window;
  (* --- resilience layer --- *)
  health : Distsim.Health.t;
  breaker : bool;
  mutable quarantine : Server.t list;  (* sorted by name *)
  mutable clock : int;  (* one tick per request: the breakers' clock *)
  mutable admission : Workload.Bucket.t option;
  quotas : (string, Workload.Bucket.t) Hashtbl.t;  (* per-tenant *)
  mutable queries_served : int;
  mutable infeasible_count : int;
  mutable degraded_count : int;
  mutable cache_hits : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable total_messages : int;
  mutable total_bytes : int;
  mutable shed_count : int;
  mutable quota_rejections : int;
  mutable deadline_exceeded_count : int;
}

let ( let* ) = Result.bind

let create ~catalog ~policy ?(helpers = []) ?close_under ?(cache_capacity = 256)
    ?(breaker = true) ?health_config ~instances () =
  if cache_capacity < 0 then
    invalid_arg "Federation.create: negative cache_capacity";
  (* Close once, through a chase handle, and serve every later check
     (planning, safety proofs, audits) from the stored closure. The
     handle is kept: its recorded derivation trace is what lets plan
     certificates replay derived witnesses against the base policy,
     and [grant]/[revoke] extend or recompute it incrementally. *)
  let chase, joins, policy =
    match close_under with
    | Some joins when not (Authz.Policy.is_open policy) ->
      let handle = Authz.Chase.closed_policy ~joins policy in
      (Some handle, joins, Authz.Chase.closure handle)
    | Some joins -> (None, joins, policy)
    | None -> (None, [], policy)
  in
  {
    catalog;
    policy;
    chase;
    joins;
    helpers;
    instances;
    cache_capacity;
    plan_cache = Hashtbl.create 16;
    sql_memo = Hashtbl.create 16;
    service_epoch = 0;
    last_revoke_epoch = 0;
    tick = 0;
    flows = window ();
    health = Distsim.Health.create ?config:health_config ();
    breaker;
    quarantine = [];
    clock = 0;
    admission = None;
    quotas = Hashtbl.create 4;
    queries_served = 0;
    infeasible_count = 0;
    degraded_count = 0;
    cache_hits = 0;
    evictions = 0;
    invalidations = 0;
    total_messages = 0;
    total_bytes = 0;
    shed_count = 0;
    quota_rejections = 0;
    deadline_exceeded_count = 0;
  }

type response = {
  plan : Plan.t;
  assignment : Planner.Assignment.t;
  certificate : Analysis.Certificate.plan_cert option;
  rescues : Planner.Third_party.rescue list;
  result : Relation.t;
  location : Server.t;
  messages : int;
  bytes : int;
  from_cache : bool;
  failovers : Distsim.Recover.failover list;
  steps : int;
}

type reject_reason =
  | Overload
  | Quota of { tenant : string }

type error =
  | Parse_error of string
  | Infeasible of {
      failed_at : int;
      advice : Planner.Advisor.proposal option;
    }
  | Execution_error of string
  | Degraded of {
      reason : Distsim.Recover.reason;
      failovers : int;
      partial : (int * Relation.t) list;
      failed_node : int option;
    }
  | Audit_violation of string
  | Uncertified of string
  | Rejected of { reason : reject_reason }
  | Deadline_exceeded of { spent : int; budget : int }

let pp_error ppf = function
  | Parse_error msg -> Fmt.pf ppf "parse error: %s" msg
  | Infeasible { failed_at; advice } ->
    Fmt.pf ppf "no safe execution exists (blocked at n%d)%a" failed_at
      (fun ppf -> function
        | None -> ()
        | Some p ->
          Fmt.pf ppf "; it would become feasible with:@,%a"
            Planner.Advisor.pp_proposal p)
      advice
  | Execution_error msg -> Fmt.pf ppf "execution error: %s" msg
  | Degraded { reason; failovers; partial; failed_node } ->
    Fmt.pf ppf "degraded: %a" Distsim.Recover.pp_reason reason;
    if failovers > 0 then
      Fmt.pf ppf "; survived %d earlier failover(s)" failovers;
    (match failed_node with
     | Some n -> Fmt.pf ppf "; died executing n%d" n
     | None -> ());
    (match partial with
     | [] -> Fmt.pf ppf "; no answer"
     | ps ->
       Fmt.pf ppf "; partial answer only (sub-results for %a)"
         Fmt.(list ~sep:(any ", ") (fmt "n%d"))
         (List.map fst ps))
  | Audit_violation msg -> Fmt.pf ppf "AUDIT VIOLATION: %s" msg
  | Uncertified msg -> Fmt.pf ppf "CERTIFICATION FAILED: %s" msg
  | Rejected { reason = Overload } ->
    Fmt.pf ppf "rejected: admission control shed the request (overload)"
  | Rejected { reason = Quota { tenant } } ->
    Fmt.pf ppf "rejected: tenant %s is over quota" tenant
  | Deadline_exceeded { spent; budget } ->
    Fmt.pf ppf "deadline exceeded: %d logical steps spent, budget %d" spent
      budget

let parse t sql =
  match Sql_parser.parse t.catalog sql with
  | Ok q -> Ok q
  | Error e -> Error (Parse_error (Fmt.str "%a" Sql_parser.pp_error e))

(* ------------------------------------------------------------------ *)
(* The service layer: epochs, the canonical-keyed LRU plan cache, and
   grant/revoke with incremental re-validation. *)

let epoch t = t.service_epoch

let base_policy t =
  match t.chase with Some c -> Authz.Chase.policy c | None -> t.policy

let serving_policy t = t.policy
let join_graph t = t.joins
let catalog t = t.catalog

let touch t c =
  t.tick <- t.tick + 1;
  c.c_used <- t.tick

(* Every server an assignment routes data through — master, slave and
   coordinator of every node — deduplicated. The quarantine gate
   intersects this set with the quarantined servers. *)
let servers_of assignment =
  let add s acc = if List.exists (Server.equal s) acc then acc else s :: acc in
  List.fold_left
    (fun acc (_, (e : Planner.Assignment.executor)) ->
      let acc = add e.Planner.Assignment.master acc in
      let acc =
        match e.Planner.Assignment.slave with
        | Some s -> add s acc
        | None -> acc
      in
      match e.Planner.Assignment.coordinator with
      | Some s -> add s acc
      | None -> acc)
    []
    (Planner.Assignment.bindings assignment)

(* Re-read the breakers: a breaker opened, or a cooldown lapsed into a
   half-open probe. Without breakers nothing is ever quarantined. *)
let refresh_quarantine t =
  if t.breaker then
    t.quarantine <- Distsim.Health.quarantined t.health ~now:t.clock

(* The health gate, run after the epoch gate: a plan routing through a
   quarantined server is dropped (to be re-planned around it). The
   quarantine is almost always empty, and a plan is only checked
   against it when looked up: one that waits out a cooldown serves
   again without ever being dropped. *)
let health_valid t key c =
  match t.quarantine with
  | [] -> true
  | quarantine ->
    (not
       (List.exists
          (fun q -> List.exists (Server.equal q) c.c_servers)
          quarantine))
    || begin
      Hashtbl.remove t.plan_cache key;
      t.invalidations <- t.invalidations + 1;
      false
    end

(* [find_valid] is the epoch gate: it runs before a single message of
   an execution is sent. An entry stamped at the current epoch is
   served as-is; one that only missed {e grants} is re-stamped lazily
   (the closure only grew, so its recorded proof still replays); one
   from behind the last revocation is dropped and re-planned — though
   [revoke] eagerly removes or re-stamps every entry, so this last arm
   is defence in depth, not the normal path. A stale plan is never
   executed, and (second gate) neither is one routing through a
   quarantined server. *)
let find_valid t key =
  let epoch_valid =
    match Hashtbl.find_opt t.plan_cache key with
    | None -> None
    | Some c ->
      if c.c_epoch = t.service_epoch then Some c
      else if c.c_epoch >= t.last_revoke_epoch then begin
        c.c_epoch <- t.service_epoch;
        Some c
      end
      else begin
        Hashtbl.remove t.plan_cache key;
        t.invalidations <- t.invalidations + 1;
        None
      end
  in
  match epoch_valid with
  | Some c when health_valid t key c -> Some c
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Admission control and per-tenant quotas: deterministic token buckets
   refilled by the federation's request clock. *)

let set_admission t ~rate ~burst =
  t.admission <- Some (Workload.Bucket.create ~rate ~burst)

let clear_admission t = t.admission <- None

let set_quota t tenant ~rate ~burst =
  Hashtbl.replace t.quotas tenant (Workload.Bucket.create ~rate ~burst)

let clear_quota t tenant = Hashtbl.remove t.quotas tenant

let cache_insert t key c =
  if t.cache_capacity > 0 then begin
    if
      Hashtbl.length t.plan_cache >= t.cache_capacity
      && not (Hashtbl.mem t.plan_cache key)
    then begin
      (* LRU eviction: drop the least-recently-used entry. *)
      let victim =
        Hashtbl.fold
          (fun k c acc ->
            match acc with
            | Some (_, used) when used <= c.c_used -> acc
            | _ -> Some (k, c.c_used))
          t.plan_cache None
      in
      match victim with
      | Some (k, _) ->
        Hashtbl.remove t.plan_cache k;
        t.evictions <- t.evictions + 1
      | None -> ()
    end;
    Hashtbl.replace t.plan_cache key c
  end

let grant t auth =
  if Authz.Policy.is_open t.policy then
    invalid_arg "Federation.grant: open-mode (DENY) policies have no epochs";
  (match t.chase with
   | Some h ->
     (* Semi-naive frontier extension through the shared handle: the
        recorded trace keeps growing, so certificates emitted after
        this grant can cite rules derived from it. *)
     let h = Authz.Chase.add auth h in
     t.chase <- Some h;
     t.policy <- Authz.Chase.closure h
   | None -> t.policy <- Authz.Policy.add auth t.policy);
  t.service_epoch <- t.service_epoch + 1
(* Cached plans survive a grant untouched: the closure only grows, so
   every recorded proof still replays. They re-stamp lazily at their
   next lookup ([find_valid]). *)

let revoke t auth =
  if Authz.Policy.is_open t.policy then
    invalid_arg "Federation.revoke: open-mode (DENY) policies have no epochs";
  t.service_epoch <- t.service_epoch + 1;
  if Authz.Policy.mem auth (base_policy t) then begin
    let dead = auth.Authz.Authorization.id in
    (match t.chase with
     | Some h ->
       let h = Authz.Chase.revoke auth h in
       t.chase <- Some h;
       t.policy <- Authz.Chase.closure h
     | None -> t.policy <- Authz.Policy.remove auth t.policy);
    t.last_revoke_epoch <- t.service_epoch;
    (* Incremental invalidation: a cached proof can only break if it
       cites the revoked rule — every Composed chain bottoms out in
       Granted base rules that are also listed in [c_rule_ids], so plans
       whose support avoids [dead] keep replaying against the shrunk
       base and are re-stamped in place. Uncertified entries (open-mode
       leftovers) have no proof to re-check and are dropped. *)
    let doomed =
      Hashtbl.fold
        (fun key c acc ->
          let cites =
            match Distsim.Engine.certificate c.c_program with
            | Some _ -> List.mem dead c.c_rule_ids
            | None -> true
          in
          if cites then key :: acc
          else begin
            c.c_epoch <- t.service_epoch;
            acc
          end)
        t.plan_cache []
    in
    List.iter (Hashtbl.remove t.plan_cache) doomed;
    t.invalidations <- t.invalidations + List.length doomed
  end

(* ------------------------------------------------------------------ *)

(* Remember a successful parse, bounded at 8 texts per cache slot so a
   stream of unique spellings cannot grow the memo without bound. *)
let memo_remember t sql key =
  if t.cache_capacity > 0 then begin
    if Hashtbl.length t.sql_memo >= 8 * t.cache_capacity then
      Hashtbl.reset t.sql_memo;
    Hashtbl.replace t.sql_memo sql key
  end

let plan_query t ?sql query =
  let key = Query.canonical query in
  Option.iter (fun sql -> memo_remember t sql key) sql;
  match find_valid t key with
  | Some c ->
    touch t c;
    Ok (c, true)
  | None -> (
    (* A miss plans the join order the cost model ranks cheapest
       around the quarantine, or the SQL order when the ranked one is
       infeasible ([Optimizer.served]), proves the assignment, and
       compiles it against that proof. Only a plan that compiles is
       cached: the program is what every later hit runs. *)
    let plan, planned =
      Planner.Optimizer.served query
        (Planner.Third_party.plan ~excluded:t.quarantine ~helpers:t.helpers
           ?closed:t.chase t.catalog t.policy)
    in
    match planned with
    | Error f ->
      t.infeasible_count <- t.infeasible_count + 1;
      let advice = Planner.Advisor.advise t.catalog t.policy plan in
      Error (Infeasible { failed_at = f.failed_at; advice })
    | Ok { assignment; rescues; _ } ->
      (* The fresh plan's one proof, before it is compiled, cached or a
         single message is sent: [certify] checks its certificate
         against the *base* policy (pre-chase when the federation was
         created with [close_under]), or under an open-mode policy
         proves it with [Safety.check] against the denials and gives
         [None]. *)
      let* certificate =
        Result.map_error
          (fun detail -> Uncertified detail)
          (Analysis.Certificate.certify ?closed:t.chase t.catalog
             (base_policy t) plan assignment)
      in
      let* program =
        Result.map_error
          (fun e -> Execution_error (Fmt.str "%a" Distsim.Engine.pp_error e))
          (Distsim.Engine.compile ~third_party:(rescues <> []) ?certificate
             t.catalog ~instances:t.instances plan assignment)
      in
      let c =
        {
          c_key = key;
          c_plan = plan;
          c_program = program;
          c_rule_ids =
            (match certificate with
             | Some cert -> Analysis.Certificate.rule_ids cert
             | None -> []);
          c_servers = servers_of assignment;
          c_epoch = t.service_epoch;
          c_used = 0;
        }
      in
      touch t c;
      cache_insert t key c;
      Ok (c, false))

let plan_sql t sql =
  (* Fast path: a text seen before maps straight to its canonical key,
     skipping the parser; if its entry is gone (evicted, invalidated,
     stale or quarantined) we must re-parse to re-plan anyway. *)
  match Option.bind (Hashtbl.find_opt t.sql_memo sql) (find_valid t) with
  | Some c ->
    touch t c;
    Ok (c, true)
  | None -> (
    match parse t sql with
    | Error e -> Error e
    | Ok query -> plan_query t ~sql query)

(* Audit a log (defence in depth) and, on success, append its flows to
   the compliance window, stamped with this request's tick. Even a
   failed run's emissions belong there; an audit violation takes
   precedence over any other outcome, and nothing of that run is
   kept. *)
let audit t network =
  match Distsim.Audit.run ~request:t.clock t.policy network with
  | Error violations ->
    Error
      (Audit_violation
         (Fmt.str "%a"
            Fmt.(list ~sep:(any "; ") Distsim.Audit.pp_violation)
            violations))
  | Ok flows ->
    List.iter (append t.flows) flows;
    Ok flows

(* Failures the breakers learn from a recovery: every server the
   supervisor wrote off during {e this} query (quarantined servers it
   started from don't re-count), plus whatever the message log shows.
   The quarantine was refreshed at this tick before the query ran, so
   it can only have changed if a breaker opened since. *)
let feed_breakers t ~newly_dead log =
  if t.breaker then begin
    let opens = Distsim.Health.breaker_opens t.health in
    Distsim.Health.observe_log t.health ~now:t.clock log;
    List.iter
      (fun s ->
        if not (List.exists (Server.equal s) t.quarantine) then
          Distsim.Health.record_failure t.health ~now:t.clock s)
      newly_dead;
    if Distsim.Health.breaker_opens t.health > opens then refresh_quarantine t
  end

let query ?fault ?deadline ?tenant t sql =
  (match deadline with
   | Some d when d <= 0 ->
     invalid_arg "Federation.query: deadline must be positive"
   | _ -> ());
  (* One tick per request: the deterministic clock the breakers and
     token buckets run on. *)
  t.clock <- t.clock + 1;
  (* Admission control runs before the parser: a shed request consumes
     nothing — no parse, no plan, no message, no audit entry. *)
  let admitted =
    match t.admission with
    | None -> true
    | Some b -> Workload.Bucket.try_take b ~now:t.clock
  in
  if not admitted then begin
    t.shed_count <- t.shed_count + 1;
    Error (Rejected { reason = Overload })
  end
  else
    let within_quota, tenant_name =
      match tenant with
      | None -> (true, "")
      | Some name -> (
        match Hashtbl.find_opt t.quotas name with
        | None -> (true, name)
        | Some b -> (Workload.Bucket.try_take b ~now:t.clock, name))
    in
    if not within_quota then begin
      t.quota_rejections <- t.quota_rejections + 1;
      Error (Rejected { reason = Quota { tenant = tenant_name } })
    end
    else begin
      refresh_quarantine t;
      match plan_sql t sql with
      | Error e -> Error e
      | Ok (cached, from_cache) ->
        (* The epoch and health gates just passed, so the cached
           program — compiled at the miss from the assignment certified
           then — seeds the supervisor's first attempt directly; any
           failover replans around the union of the quarantine and
           whatever dies, and is re-certified before its first message.
           The policy we hand over is the {e base} policy (with the
           shared chase handle), because certificates check against the
           base. No fault plan means the reliable one: the same path,
           with nothing to inject. *)
        let r =
          Distsim.Recover.execute ~helpers:t.helpers ?closed:t.chase ?deadline
            ~excluded:t.quarantine ~seed:cached.c_program t.catalog
            (base_policy t) ~instances:t.instances
            ~fault:(Option.value fault ~default:Distsim.Fault.reliable)
            cached.c_plan
        in
        (match r with
         | Ok { excluded; log; _ } | Error { excluded; log; _ } ->
           feed_breakers t ~newly_dead:excluded log);
        match r with
        | Ok r ->
          let* flows = audit t r.log in
          (* A response that needed a failover was not served by the
             cached plan — the cache produced the seed attempt, but what
             answered was a fresh replan. Count the hit only when the
             cached assignment itself answered, so [cache_hits] and
             failover work stay disjoint. *)
          let from_cache = from_cache && r.failovers = [] in
          let messages = List.length flows in
          let bytes =
            List.fold_left
              (fun acc (f : Distsim.Audit.entry) -> acc + f.bytes)
              0 flows
          in
          t.queries_served <- t.queries_served + 1;
          if from_cache then t.cache_hits <- t.cache_hits + 1;
          t.total_messages <- t.total_messages + messages;
          t.total_bytes <- t.total_bytes + bytes;
          Ok
            {
              plan = cached.c_plan;
              assignment = r.assignment;
              certificate = r.certificate;
              rescues = r.rescues;
              result = r.result;
              location = r.location;
              messages;
              bytes;
              from_cache;
              failovers = r.failovers;
              steps = r.steps;
            }
        | Error d ->
          let* _ = audit t d.log in
          (match d.reason with
           | Distsim.Recover.Deadline_exceeded { spent; budget } ->
             (* Disjoint from [degraded]: a deadline miss is its own
                outcome, not a recovery failure. *)
             t.deadline_exceeded_count <- t.deadline_exceeded_count + 1;
             Error (Deadline_exceeded { spent; budget })
           | Distsim.Recover.Execution_failed msg -> Error (Execution_error msg)
           | reason ->
             t.degraded_count <- t.degraded_count + 1;
             Error
               (Degraded
                  {
                    reason;
                    failovers = List.length d.failovers;
                    partial = d.partial;
                    failed_node = d.failed_node;
                  }))
    end

type cached_plan = {
  key : string;
  plan : Plan.t;
  assignment : Planner.Assignment.t;
  certificate : Analysis.Certificate.plan_cert option;
  stamped_at : int;
}

let cached_plans t =
  let entries =
    Hashtbl.fold
      (fun _ c acc ->
        ( c.c_key,
          {
            key = c.c_key;
            plan = c.c_plan;
            assignment = Distsim.Engine.assignment c.c_program;
            certificate = Distsim.Engine.certificate c.c_program;
            stamped_at = c.c_epoch;
          } )
        :: acc)
      t.plan_cache []
  in
  List.map snd
    (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)

let audit_log t =
  let w = t.flows in
  let n = min w.w_appended audit_window in
  List.init n (fun k -> entry_at w ((w.w_appended - n + k) mod audit_window))

let audited t = t.flows.w_appended

(* ------------------------------------------------------------------ *)
(* Health introspection, for the CLI's [health] script line and the
   harnesses. *)

let quarantined_servers t = t.quarantine
let breaker_enabled t = t.breaker

let health_report t =
  let snaps = Distsim.Health.report t.health ~now:t.clock in
  (* [report] resolves lapsed cooldowns, so re-sync the quarantine. *)
  refresh_quarantine t;
  snaps

let stats t =
  {
    queries_served = t.queries_served;
    infeasible = t.infeasible_count;
    degraded = t.degraded_count;
    cache_hits = t.cache_hits;
    evictions = t.evictions;
    invalidations = t.invalidations;
    epoch = t.service_epoch;
    total_messages = t.total_messages;
    total_bytes = t.total_bytes;
    shed = t.shed_count;
    quota_rejections = t.quota_rejections;
    breaker_opens = Distsim.Health.breaker_opens t.health;
    quarantined = List.length t.quarantine;
    deadline_exceeded = t.deadline_exceeded_count;
  }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<v>queries served: %d@,infeasible:     %d@,degraded:       %d@,\
     plan-cache hits: %d@,evictions:      %d@,invalidations:  %d@,\
     policy epoch:   %d@,messages:       %d@,bytes:          %d@,\
     shed:           %d@,quota rejects:  %d@,breaker opens:  %d@,\
     quarantined:    %d@,deadline misses: %d@]"
    s.queries_served s.infeasible s.degraded s.cache_hits s.evictions
    s.invalidations s.epoch s.total_messages s.total_bytes s.shed
    s.quota_rejections s.breaker_opens s.quarantined s.deadline_exceeded
