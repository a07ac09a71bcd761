(** Distributed execution of a safely-assigned query plan.

    The engine runs a {!Relalg.Plan} under an executor assignment
    exactly as Figure 5 prescribes:

    - leaves are read at their storage server;
    - unary operations run at their operand's executor;
    - a regular join ships the non-master operand to the master;
    - a semi-join performs the five-step protocol: the master projects
      its join attributes, ships them to the slave, the slave joins
      them with its operand and ships the (reduced) result back, and
      the master completes with a natural join;
    - a third-party proxy join (footnote 3) receives both operands.

    Every transfer is logged to a {!Network.t} with the profile of the
    transmitted relation, derived from the operations the engine
    performs — independently of the planner — so that {!Audit.run}
    cross-checks planning-time safety against runtime behaviour.

    {b Compile, then run.} None of that derivation depends on the
    instance: Definition 3.3 and Figure 4 make each flow's profile a
    function of the plan and its assignment, and Figure 5 fixes every
    message of a join. So {!compile} does it once, at the schema level:
    it turns a plan and its assignment into a {!program} of steps, each
    holding its operator with precomputed input positions and output
    header, and each transmission holding its node, sender, receiver,
    purpose, note, profile and the profile's interned join-path id.
    {!run} executes a program under a fault injector and does only row
    work. {!execute} is [run (compile …)]. *)

open Relalg

type outcome = {
  result : Relation.t;  (** the query answer *)
  location : Server.t;  (** server holding it (root master) *)
  network : Network.t;  (** everything that crossed a boundary *)
  node_rows : (int * int) list;
      (** cardinality of each node's result, by node id — consumed by
          {!Des} *)
  steps : int;
      (** logical injector steps this execution consumed (one per
          compute, transmission attempt and backoff wait) — what a
          [deadline] is charged against *)
}

type error =
  | Structure of Planner.Safety.error
      (** the assignment violates Definition 4.1 *)
  | Missing_instance of string  (** no instance for a base relation *)
  | Stale_instance of string
      (** the instance of a base relation no longer has the header the
          program was compiled against: its steps would read the wrong
          positions, so the program refuses to run it *)
  | Uncertified_flow of { node : int; sender : Server.t; receiver : Server.t }
      (** a transmission of the plan matches no flow of the certificate
          it was compiled with (same node, sender, receiver and profile,
          counted as a multiset) *)
  | Server_down of { server : Server.t; node : int; permanent : bool }
      (** fault injection: [server] was unavailable for node [node];
          [permanent] distinguishes a crash-for-good from a transient
          outage that outlasted the retry budget. Either way the
          supervisor ({!Recover}) may exclude the server and fail over. *)
  | Transfer_failed of {
      sender : Server.t;
      receiver : Server.t;
      node : int;
      attempts : int;
    }
      (** fault injection: the link kept dropping or corrupting the
          message and the retry budget ran out *)
  | Deadline_exceeded of { node : int; spent : int; budget : int }
      (** the query's logical-time budget ran out at node [node]: the
          execution was abandoned rather than retried forever. Always
          typed — never a silent partial answer. *)

(** Alias of {!Planner.Assignment}, for the signature below. *)
module Assignment = Planner.Assignment

val pp_error : error Fmt.t

(** A plan compiled under one assignment: what {!run} executes. It
    keeps the instance lookup, assignment and certificate it was
    compiled with, and no instance data. *)
type program

(** The assignment the program was compiled from. *)
val assignment : program -> Assignment.t

(** The certificate the program was compiled against ([None] when
    compiled without one). *)
val certificate : program -> Analysis.Certificate.plan_cert option

(** The joins a third party rescues, by increasing node id: the
    coordinated and proxy joins {!compile} decoded. For any program
    that compiles, this is {!Planner.Third_party.rescues_of} the plan
    and the program's assignment, found once. *)
val rescues : program -> Planner.Third_party.rescue list

(** [compile catalog ~instances plan assignment] compiles the plan.
    [instances] maps base-relation names to their stored instances;
    compiling reads each leaf instance's header, and every run looks the
    instances up again. [third_party] (default [false]) accepts proxy
    joins.

    Everything that does not depend on rows is decided here: the
    structure of the assignment (Definition 4.1), the protocol of each
    join, every output header and key position, and every
    transmission's profile and note. So a structural error, a missing
    instance or an uncertified flow is reported here, before any step
    runs or any message is sent, rather than at the node that meets it.
    When the plan has several, the one reported is the first a run
    would meet.

    [executor] (default none: the positional operators of
    {!Relalg.Relation}, planned here once per step) selects the
    physical operators every step runs through — pass [(module
    Relalg.Batch.Exec)] for the columnar batch executor, whose
    operators then run with the compiled attribute sets and conditions.
    Results, profiles and the message log are identical by contract
    (the differential suite enforces it).

    [bloom] (default none: exact semi-joins) makes semi-join steps 1–2
    ship a [bits]-bits-per-key Bloom filter of the master's join column
    instead of the column itself ({!Relalg.Bloom}). False positives
    only inflate the step-4 ship-back — the step-5 join at the master
    discards them, so the result is exact — while the step-2 message is
    priced at the filter's bits ({!Network.wire_bytes}). The message
    still records the projected column and its profile, so audit
    accounting is unchanged.
    @raise Invalid_argument if [bloom] is [< 1].

    [certificate] (default none) is the proof the assignment was
    admitted with. Each transmission must then match one flow of it:
    same join node, sender and receiver and an equal profile, each
    certified flow matched at most once; otherwise compiling fails with
    [Uncertified_flow]. A matched transmission carries the
    certificate's own profile value. Bloom's reduced operand (step 4
    under [bloom]) is exempt: it ships the slave's operand alone, so
    its profile is not the certified semi-join result's. *)
val compile :
  ?third_party:bool ->
  ?executor:(module Exec.S) ->
  ?bloom:int ->
  ?certificate:Analysis.Certificate.plan_cert ->
  Catalog.t ->
  instances:(string -> Relation.t option) ->
  Plan.t ->
  Assignment.t ->
  (program, error) result

(** [run program] executes it, left child before right child at every
    join, in Figure 5's step order.

    [fault] (default a fresh injector over {!Fault.reliable}) is the
    injector the execution runs under: every compute step checks the
    server's crash windows and every transfer is a bounded
    retransmission loop — each attempt logged to the network with its
    fate and the {e same} profile, so the audit judges retries exactly
    as it judges first sends. There is one code path: without a fault
    plan, nothing is ever down or lost.

    [network] (default a fresh log) lets a supervisor accumulate the
    emissions of several execution attempts into one auditable log.

    [deadline] (default none) bounds the query's logical time, charged
    against the injector's step counter from the moment [run] is
    entered. Every step follows one rule — charge, check, act: the
    injector advances one step for a compute, a transmission attempt
    or a backoff wait; then the deadline is checked; only then does
    the compute run or the message leave. So when the steps consumed
    exceed the budget the execution aborts with [Deadline_exceeded]
    before the step's action: a transmission that would take the
    query past its budget is never emitted.

    [observe] (default none) is called with each completed node's id
    and value — the hook {!Recover} uses to salvage partial results
    from an execution that later dies.

    A leaf whose instance is gone fails with [Missing_instance], and
    one whose header is no longer the compiled one with
    [Stale_instance]. *)
val run :
  ?fault:Fault.t ->
  ?network:Network.t ->
  ?deadline:int ->
  ?observe:(int -> Relation.t -> unit) ->
  program ->
  (outcome, error) result

(** [execute catalog ~instances plan assignment] is {!compile} then
    {!run}, with the arguments of each; the program is dropped. *)
val execute :
  ?third_party:bool ->
  ?executor:(module Exec.S) ->
  ?bloom:int ->
  ?fault:Fault.t ->
  ?network:Network.t ->
  ?deadline:int ->
  ?observe:(int -> Relation.t -> unit) ->
  Catalog.t ->
  instances:(string -> Relation.t option) ->
  Plan.t ->
  Assignment.t ->
  (outcome, error) result

(** Centralized reference evaluation of the same plan (no distribution,
    no authorization): the ground truth the distributed result must
    equal. @raise Invalid_argument on a missing instance. *)
val centralized :
  instances:(string -> Relation.t option) -> Plan.t -> Relation.t
