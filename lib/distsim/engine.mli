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
    transmitted relation, recomputed from the operations actually
    performed — independently of the planner — so that {!Audit.run}
    cross-checks planning-time safety against runtime behaviour. *)

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

(** [execute catalog ~instances plan assignment] runs the plan.
    [instances] maps base-relation names to their stored instances.
    [third_party] (default [false]) accepts proxy joins.

    [executor] (default {!Relalg.Exec.Reference}) selects the physical
    operators every node runs through — pass [(module
    Relalg.Batch.Exec)] for the columnar batch executor. Results,
    profiles and the message log are identical by contract (the
    differential suite enforces it).

    [bloom] (default none: exact semi-joins) makes semi-join steps 1–2
    ship a [bits]-bits-per-key Bloom filter of the master's join column
    instead of the column itself ({!Relalg.Bloom}). False positives
    only inflate the step-4 ship-back — the step-5 join at the master
    discards them, so the result is exact — while the step-2 message is
    priced at the filter's bits ({!Network.wire_bytes}). The message
    still records the projected column and its profile, so audit
    accounting is unchanged.
    @raise Invalid_argument if [bloom] is [< 1].

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
    against the injector's step counter from the moment [execute] is
    entered. Every step follows one rule — charge, check, act: the
    injector advances one step for a compute, a transmission attempt
    or a backoff wait; then the deadline is checked; only then does
    the compute run or the message leave. So when the steps consumed
    exceed the budget the execution aborts with [Deadline_exceeded]
    before the step's action: a transmission that would take the
    query past its budget is never emitted.

    [observe] (default none) is called with each completed node's id
    and value — the hook {!Recover} uses to salvage partial results
    from an execution that later dies. *)
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
