(** The one-module front door.

    A [Federation.t] bundles a catalog, a policy, instances and
    optional third-party helpers, and serves queries end to end:
    parse → plan (with a plan cache) → execute → audit. Failures come
    back as typed errors, infeasibility with the policy advisor's
    repair proposal attached. Every flow of everything it executes is
    audited, counted ({!audited}) and kept in a compliance window of
    the last {!audit_window} flows ({!audit_log}): who sent what to
    whom under which rule, never the data itself.

    {b The service layer.} A federation is multi-tenant: the policy
    changes while queries are in flight. {!grant} and {!revoke} bump an
    integer {e policy epoch} through the shared {!Authz.Chase.closed}
    handle; prepared plans are cached under a {e canonical} query key
    ({!Relalg.Query.canonical}) and stamped with the epoch that proved
    them. On a grant, cached plans survive (the closure only grows) and
    re-stamp lazily; on a revoke, exactly the plans whose certificate
    cites the revoked rule (by interned rule id —
    {!Analysis.Certificate.rule_ids}) are invalidated and re-proved on
    next use, while the rest are re-stamped in place. The epoch gate
    runs at {!query} time before any message is sent, so a stale plan
    is never executed.

    {[
      let fed =
        Federation.create ~catalog ~policy ~instances ()
      in
      match Federation.query fed "SELECT ... FROM ... JOIN ..." with
      | Ok r -> Fmt.pr "%a@." Relalg.Relation.pp r.result
      | Error e -> Fmt.epr "%a@." Federation.pp_error e
    ]} *)

open Relalg

type t

(** [create ~catalog ~policy ~instances ()] — [helpers] (default none)
    are offered to the third-party planner when the operands cannot
    execute a join; [close_under] (default none) closes the policy
    under the chase over the given join graph before serving queries
    (Section 3.2 assumes policies chase-closed — EXP-F' measures what
    raw policies lose). [cache_capacity] (default [256]) bounds the
    prepared-plan cache, evicting least-recently-used entries; [0]
    disables caching entirely (plan-per-call — the differential
    baseline of the soak and bench harnesses).

    [breaker] (default [true]) enables per-server circuit breakers:
    failures observed in message logs and recoveries trip a breaker
    ({!Distsim.Health}), quarantined servers are excluded from
    planning, and plans routing through them are invalidated — the
    baseline for the health bench disables it. [health_config] tunes
    the breakers (failure threshold, cooldown, rolling window).

    @raise Invalid_argument if [cache_capacity < 0]. *)
val create :
  catalog:Catalog.t ->
  policy:Authz.Policy.t ->
  ?helpers:Server.t list ->
  ?close_under:Joinpath.Cond.t list ->
  ?cache_capacity:int ->
  ?breaker:bool ->
  ?health_config:Distsim.Health.config ->
  instances:(string -> Relation.t option) ->
  unit ->
  t

type response = {
  plan : Plan.t;
      (** the plan the cache miss chose: the join order the cost model
          ranks cheapest ({!Planner.Optimizer.served}), which need not
          be the SQL's FROM order; a failover replans this same plan *)
  assignment : Planner.Assignment.t;
  certificate : Analysis.Certificate.plan_cert option;
      (** proof-carrying witness for the assignment that answered:
          emitted and checked by {!Analysis.Certificate.certify}
          against the {e base} (pre-chase) policy before the plan was
          cached, and — under fault injection — again for the
          replacement assignment of every failover. [None] only under
          an open-mode policy, which the certificate language does not
          cover; [certify] proves such a plan with
          {!Planner.Safety.check} against the denials. *)
  rescues : Planner.Third_party.rescue list;
      (** non-empty when a helper had to step in *)
  result : Relation.t;
      (** the answer, with the columns in the order of [plan]'s header:
          they follow the ranked join order, as they follow the FROM
          order when the SQL order is served; as a set it is the SQL
          order's answer *)
  location : Server.t;
  messages : int;  (** transfers this execution performed *)
  bytes : int;
  from_cache : bool;
      (** the plan (not the result) was cached {e and} answered as-is —
          a response that needed a failover replan is not a cache hit *)
  failovers : Distsim.Recover.failover list;
      (** non-empty: the answer is correct but came the hard way — one
          replan per server that died under fault injection *)
  steps : int;
      (** logical steps the execution consumed — what a [deadline] is
          charged against *)
}

(** Why admission control refused a request. *)
type reject_reason =
  | Overload  (** the service-wide admission bucket was empty *)
  | Quota of { tenant : string }  (** the tenant's quota bucket was empty *)

type error =
  | Parse_error of string
  | Infeasible of {
      failed_at : int;
      advice : Planner.Advisor.proposal option;
          (** minimal grants that would repair it, when one exists *)
    }
  | Execution_error of string
      (** the engine refused the assignment, found a base relation
          without an instance or one whose header changed since the plan
          was compiled ({!Distsim.Engine.pp_error}'s text) — not a
          fault, so not a degradation *)
  | Degraded of {
      reason : Distsim.Recover.reason;
      failovers : int;  (** failovers that {e did} succeed before *)
      partial : (int * Relation.t) list;
          (** completed sub-results by node id; empty means the run
              failed outright, non-empty is an honest partial answer *)
      failed_node : int option;
    }
      (** the run could not be recovered from a fault; never a silent
          wrong answer ([Ok] with [failovers <> []] is the "answered
          after failover" case) *)
  | Audit_violation of string
      (** defence in depth: an executed flow failed the runtime audit —
          the response is withheld *)
  | Uncertified of string
      (** the freshly planned assignment failed its proof
          ({!Analysis.Certificate.certify}): its certificate could not
          be emitted or checked, or, under an open-mode policy, it
          entails a denied flow — an engine-bug tripwire; the plan is
          neither cached nor executed *)
  | Rejected of { reason : reject_reason }
      (** load shedding, always typed, never a silent drop: the
          request was refused {e before} parsing — it consumed no
          planning work and emitted no message ({!audited} is
          unchanged) *)
  | Deadline_exceeded of { spent : int; budget : int }
      (** the query's logical-time budget ran out mid-execution; the
          run was abandoned, its emissions audited, and the outcome
          typed — disjoint from [Degraded] *)

val pp_error : error Fmt.t

(** Serve one SQL query. Plans are cached under the canonical query
    key and validated against the current policy epoch — and, with
    breakers enabled, against the current quarantine set — before any
    message is sent; execution and auditing always run.

    A cache miss ranks the query's valid left-deep join orders by the
    summed rows of their joins under a uniform cost model
    ({!Planner.Optimizer.rank}; catalog-level inputs only, never
    instance statistics) and plans the cheapest around the quarantine;
    a tie keeps the SQL's FROM order, so a query without a selective
    WHERE conjunct plans exactly in its SQL order. When the ranked
    order is infeasible, the miss plans the SQL order instead and an
    infeasible query reports the SQL order's failure and advice: the
    Figure-6 planner runs at most twice, and reordering to recover
    feasibility stays {!Planner.Optimizer.optimize}'s job. The miss
    then proves the assignment ({!Analysis.Certificate.certify}; the
    certificate names the plan's join order) and compiles it against
    that proof ({!Distsim.Engine.compile}); only then is the program
    cached. A plan that does not compile (a base relation
    without an instance, say) is refused with {!Execution_error} before
    any message is sent, and nothing is cached. Each cached plan is
    compiled exactly once: every later hit runs the program compiled
    at its miss, so a hit whose leaf instance changed its header since
    that miss fails with {!Execution_error} (the stale-instance
    refusal), and stays cached. A cached plan routing through a
    quarantined server is dropped when it is looked up, and counted in
    [invalidations]; one not looked up until that server's breaker
    half-opens serves again.

    Every query runs through one path, {!Distsim.Recover.execute},
    under [fault] ({!Distsim.Fault.reliable} when absent), with the
    cached program seeding the first attempt and the quarantined
    servers excluded. Message-level faults are
    absorbed by retransmission, dead servers by safe replanning; the
    cumulative log of every attempt — a failed run's included — is
    audited, appended to the compliance window ({!audit_log}) and fed
    to the circuit breakers. An audit violation takes precedence over
    any other outcome. Otherwise a failed run maps to:
    - {!Deadline_exceeded} for a blown budget, counted as a deadline
      miss and not as degraded;
    - {!Execution_error} for a non-fault engine error;
    - {!Degraded} for every other reason.

    [deadline] bounds the query in logical steps (see
    {!Distsim.Engine.execute}). [tenant] names the tenant for
    per-tenant quota accounting ({!set_quota}).

    @raise Invalid_argument if [deadline <= 0]. *)
val query :
  ?fault:Distsim.Fault.plan ->
  ?deadline:int ->
  ?tenant:string ->
  t ->
  string ->
  (response, error) result

(** {1 The service layer: grant, revoke, epochs} *)

(** [grant t a] adds authorization [a] to the base policy and bumps the
    policy epoch. Under [close_under] the shared chase handle is
    extended semi-naively ({!Authz.Chase.add}). Cached plans all stay
    valid — the closure only grows — and are lazily re-stamped at their
    next use.

    @raise Invalid_argument on an open-mode (DENY) policy, which has no
    epochs. *)
val grant : t -> Authz.Authorization.t -> unit

(** [revoke t a] removes [a] from the base policy, bumps the epoch and
    incrementally re-validates the plan cache: exactly the entries
    whose certificate cites [a] (or a rule derived from it — both by
    interned rule id, see {!Analysis.Certificate.rule_ids}) are
    invalidated, to be re-planned and re-proved on next use; every
    other entry's proof still replays against the shrunk base policy
    and is re-stamped in place. Revoking a rule absent from the base (a
    chase-derived one, say) only bumps the epoch: nothing is invalidated.
    Under [close_under], only [a]'s server is re-closed ({!Authz.Chase.revoke}).

    @raise Invalid_argument on an open-mode (DENY) policy. *)
val revoke : t -> Authz.Authorization.t -> unit

(** Current policy epoch: 0 at creation, +1 per {!grant}/{!revoke}. *)
val epoch : t -> int

(** The base (pre-chase) policy certificates are checked against. *)
val base_policy : t -> Authz.Policy.t

(** The serving policy: the chase closure when created with
    [close_under], the base policy otherwise. *)
val serving_policy : t -> Authz.Policy.t

(** The join graph the policy was closed under (empty without
    [close_under]). *)
val join_graph : t -> Joinpath.Cond.t list

val catalog : t -> Catalog.t

(** One prepared plan as cached, for audit tooling: [stamped_at] is the
    epoch the entry was last validated at. *)
type cached_plan = {
  key : string;
      (** canonical query key ({!Relalg.Query.canonical} of the SQL): it
          keeps the FROM spelling, so two spellings of one query in
          different FROM orders are two entries *)
  plan : Plan.t;  (** the ranked plan the miss chose *)
  assignment : Planner.Assignment.t;
  certificate : Analysis.Certificate.plan_cert option;
  stamped_at : int;
}

(** Current cache contents, sorted by key — the hook the soak harness
    uses to re-prove every cached plan against the current base
    policy. *)
val cached_plans : t -> cached_plan list

(** How many flows the compliance window retains: [4096]. A constant,
    not a knob: the window bounds a long-running service's memory, and
    {!audited} keeps the exact count. *)
val audit_window : int

(** The last {!audit_window} audited flows (all of them until that many
    were audited), oldest first: request ticks never decrease, and
    within a request [seq] ascends. The flows of every execution are
    kept, a degraded run's or a deadline miss's emissions included; an
    execution with an audit violation keeps none. *)
val audit_log : t -> Distsim.Audit.entry list

(** Every flow ever appended to the compliance window, including those
    it no longer retains. A request that was shed, rejected, infeasible
    or failed its audit leaves it unchanged. *)
val audited : t -> int

(** {1 The resilience layer: admission, quotas, breakers} *)

(** Install service-wide admission control: a token bucket refilled
    [rate] tokens per request tick, holding at most [burst]. When it
    runs dry, requests are shed with [Rejected {reason = Overload}] —
    typed, before parsing, never silent. *)
val set_admission : t -> rate:float -> burst:float -> unit

val clear_admission : t -> unit

(** Install (or replace) [tenant]'s quota bucket. Queries carrying
    [?tenant] draw from it; exhaustion returns
    [Rejected {reason = Quota _}]. Tenants without a bucket are
    unthrottled. *)
val set_quota : t -> string -> rate:float -> burst:float -> unit

val clear_quota : t -> string -> unit

(** Currently quarantined servers (open breakers), sorted by name. *)
val quarantined_servers : t -> Server.t list

val breaker_enabled : t -> bool

(** Per-server breaker snapshots at the current request tick. Resolves
    lapsed cooldowns (Open -> Half_open) and re-syncs the quarantine,
    exactly as the next query would. *)
val health_report : t -> Distsim.Health.snapshot list

type stats = {
  queries_served : int;  (** responses actually served *)
  infeasible : int;
  degraded : int;  (** fault-injected runs that could not be recovered *)
  cache_hits : int;
      (** counted only when the response was served by the cached
          assignment itself — disjoint from failover/degraded work *)
  evictions : int;  (** LRU evictions under [cache_capacity] *)
  invalidations : int;
      (** entries dropped by {!revoke}'s re-validation or the
          quarantine gate *)
  epoch : int;  (** current policy epoch *)
  total_messages : int;
  total_bytes : int;
  shed : int;  (** requests refused by admission control *)
  quota_rejections : int;  (** requests refused by a tenant quota *)
  breaker_opens : int;  (** breaker trips since creation *)
  quarantined : int;  (** servers currently quarantined *)
  deadline_exceeded : int;  (** queries abandoned over their deadline *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t
