(** Safe recovery: a supervisor that executes a query plan under a
    fault plan and survives what can be survived.

    The supervisor runs a compiled plan ({!Engine.compile},
    {!Engine.run}) with a {!Fault} injector: the caller's, or one it
    planned, proved and compiled itself.
    Message-level faults (drops, corruption, transient outages) are
    absorbed inside the engine by bounded retransmission with
    deterministic exponential backoff. What escapes to this layer is
    server death: on {!Engine.Server_down} the dead server is excluded
    from the candidate universe and the plan is re-planned with
    {!Planner.Safe_planner} (replicated leaves fail over to a surviving
    copy, helpers may step in), then — before a single post-failover
    message is emitted — the replacement assignment is proved by
    {!Analysis.Certificate.certify}: a certificate emitted and checked
    against the base policy, or {!Planner.Safety.check} under an
    open-mode policy. Only then is it compiled, against that
    certificate, and execution resumes, from the root, under the same
    injector.

    The central invariant is {b safety under failure}: no retry,
    retransmission or failover replan ever emits a message the policy
    does not authorize. Retransmissions carry the same profile as the
    original send; every replan is safe by construction {e and} by
    its proof; and the cumulative log ({!recovered.log} /
    {!degraded.log}) contains the emissions of every attempt, aborted
    ones included, so {!Audit.run} can hold the whole faulty history to
    Definition 3.3 — the fault soak asserts it does, clean, on
    thousands of seeded runs.

    When recovery is impossible the supervisor never fakes an answer:
    it returns a typed {!degraded} outcome naming the reason, the
    subtree that died and whatever sub-results completed — partial,
    explicitly so, never silently wrong.

    Everything here is deterministic: same seed, same fault plan, same
    federation ⇒ identical message log, retry schedule and outcome. *)

open Relalg

(** One failover the supervisor performed. *)
type failover = {
  attempt : int;  (** 1-based execution attempt that died *)
  dead : Server.t;
  permanent : bool;
      (** [false] when a transient outage exhausted the retry budget
          and was escalated to exclusion *)
  failed_node : int;  (** plan node being executed when it died *)
  assignment : Planner.Assignment.t;  (** the replacement assignment *)
  certificate : Analysis.Certificate.plan_cert option;
      (** the replacement's certificate, emitted and checked by
          {!Analysis.Certificate.certify} before any post-failover
          message; [None] under an open-mode policy (proved by
          {!Planner.Safety.check}, outside the certificate language)
          or when the proof failed — the latter always escalates to
          {!Replan_uncertified}, and the failover is still recorded *)
}

(** Why an execution could not be recovered. *)
type reason =
  | No_safe_replan of { dead : Server.t list; failed_at : int }
      (** with the dead servers excluded, no safe assignment exists
          (data lost with its only copy, or the policy leaves no
          authorized executor) *)
  | Replan_uncertified of { dead : Server.t list; detail : string }
      (** the replanned assignment failed its proof
          ({!Analysis.Certificate.certify}): its certificate could not
          be emitted or checked, or, under an open-mode policy, it
          entails a denied flow. By construction this should never
          happen; it is an engine-bug tripwire, kept distinct so it
          cannot be confused with a legitimate failure *)
  | Transfer_failed of {
      sender : Server.t;
      receiver : Server.t;
      node : int;
      attempts : int;
    }  (** a link never delivered within the retry budget *)
  | Failover_limit of { dead : Server.t list }
      (** more servers died than the supervisor may exclude *)
  | Deadline_exceeded of { spent : int; budget : int }
      (** the query's logical-time budget ran out — mid-execution or
          before a replan could even start. The work done so far is in
          [partial]; the answer is abandoned, never guessed. *)
  | Execution_failed of string
      (** non-fault engine error (structural, missing or changed
          instance, a transmission its certificate does not cover) *)

type recovered = {
  result : Relation.t;
  location : Server.t;
  outcome : Engine.outcome;
      (** the final (successful) attempt — its network holds only that
          attempt's messages, so {!Des.tasks_of_execution}
          pattern-matches it directly *)
  log : Network.t;
      (** cumulative emissions of {e all} attempts, for {!Audit.run} *)
  assignment : Planner.Assignment.t;  (** the assignment that succeeded *)
  certificate : Analysis.Certificate.plan_cert option;
      (** proof-carrying witness for the successful assignment, emitted
          and checked before its first message; [None] only under an
          open-mode policy *)
  rescues : Planner.Third_party.rescue list;
  failovers : failover list;  (** empty: recovered without replanning *)
  excluded : Server.t list;  (** servers written off during recovery *)
  attempts : int;  (** execution attempts, [1 + List.length failovers] *)
  retries : int;  (** retransmitted messages across the whole log *)
  delay : float;  (** simulated seconds spent in backoffs *)
  steps : int;  (** logical steps the whole recovery consumed *)
  schedule : Fault.event list;  (** the injector's deterministic record *)
}

type degraded = {
  reason : reason;
  log : Network.t;  (** cumulative emissions up to the point of death *)
  failovers : failover list;  (** failovers that did succeed before *)
  partial : (int * Relation.t) list;
      (** completed sub-results of the last attempt, by node id — an
          honest partial answer, never presented as the full one *)
  failed_node : int option;  (** the subtree that died, when known *)
  excluded : Server.t list;
  schedule : Fault.event list;
}

type outcome = (recovered, degraded) result

(** [execute catalog policy ~instances ~fault plan] plans and runs
    [plan] under [fault]. It is the one execution path of a served
    query: {!Federation.query} and [cisqp run] run every query through
    it, under {!Fault.reliable} when the caller names no fault plan. [helpers]
    are offered to the planner (initial plan and every replan alike).
    Failovers are bounded by the catalog's server count: one more
    death {e during this recovery} ends it with {!Failover_limit}.

    [closed] shares a caller's long-lived chase handle: its closure is
    computed once and serves the planner of every failover attempt,
    and its derivations are the certificates' evidence. [policy] must
    then be the base policy the handle closes over, since certificates
    are checked against the base.

    [deadline] bounds the whole recovery — every attempt's computes,
    sends, retries and backoff waits charge one shared budget of
    injector steps; when it runs out the recovery degrades with a
    typed {!Deadline_exceeded}, whether mid-execution or between
    attempts.

    [excluded] pre-excludes servers (e.g. quarantined by circuit
    breakers) from the initial plan and every replan; they do not
    count against the failover limit.

    [seed] supplies attempt 1 with a program the caller compiled
    ({!Engine.compile}) from an assignment it already certified, against
    that certificate — a federation's cached plan whose epoch gate just
    passed, or the assignment [cisqp run] planned with its own flags —
    skipping the initial replan and its proof. Attempt 1 runs it as it
    is: its assignment and certificate are the program's
    ({!Engine.assignment}, {!Engine.certificate}), and so are its
    rescues ({!Engine.rescues}, found once, when it was compiled).
    Failovers still replan and prove from scratch.

    Every replanned attempt compiles its assignment, with its
    certificate when it has one, so a transmission the certificate
    does not cover fails the attempt before it sends anything; a
    compile error degrades with {!Execution_failed}. [executor] and
    [bloom] are passed to every such {!Engine.compile} unchanged (see
    there); the seed keeps the ones it was compiled with. *)
val execute :
  ?helpers:Server.t list ->
  ?executor:(module Relalg.Exec.S) ->
  ?bloom:int ->
  ?closed:Authz.Chase.closed ->
  ?deadline:int ->
  ?excluded:Server.t list ->
  ?seed:Engine.program ->
  Catalog.t ->
  Authz.Policy.t ->
  instances:(string -> Relation.t option) ->
  fault:Fault.plan ->
  Plan.t ->
  outcome

(** The schedule of a recovered run: the final attempt priced by
    {!Des.makespan} with the fault plan's backoff schedule, every
    finish time (the root's, so the makespan, included) shifted by the
    wire time of the aborted attempts' emissions (their work was spent
    even though it was thrown away). An upper bound — attempts are
    sequential. Without failovers nothing is shifted: a run under
    {!Fault.reliable} gets exactly {!Des.makespan}'s schedule. *)
val makespan :
  Des.model -> Fault.plan -> Plan.t -> recovered -> Des.schedule

val pp_failover : failover Fmt.t
val pp_reason : reason Fmt.t
val pp_outcome : outcome Fmt.t
