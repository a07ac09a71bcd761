(** Third-party joins — the extension of footnote 3.

    When no operand server can safely execute a join, "a safe
    assignment could exist in case of a third party acting either as a
    proxy for one of the two operands or as a coordinator for them".
    This module retries a failed plan allowing, at each blocked join, an
    outside server [T] (drawn from [helpers]) that is authorized to view
    {e both} operands in full: both executors ship their results to [T],
    which computes a regular join and continues as the node's executor.

    The resulting assignment is validated by
    [Safety.check ~third_party:true]. *)

open Relalg
open Authz

type kind =
  | Proxy  (** the helper received both operands and executed the join *)
  | Coordinator
      (** the helper only matched join columns; the join ran at an
          operand server on the reduced operand *)

type rescue = {
  node : int;  (** join rescued *)
  helper : Server.t;
  kind : kind;
}

type result = {
  assignment : Assignment.t;
  rescues : rescue list;  (** empty when the greedy planner succeeded *)
  trace : Safe_planner.trace;  (** the planner's trace of [assignment] *)
}

type failure = {
  failed_at : int;
  tried : Server.t list;  (** helpers that could not view both operands *)
}

(** [plan ~helpers catalog policy p] — first the plain Figure-6
    algorithm; on failure, candidate lists of blocked joins are extended
    with viable helpers and the traversal retried. [excluded] (default
    none) bars servers from every role, as in {!Safe_planner.plan} —
    the failover path of {!Distsim.Recover}. [closed] passes a
    {!Chase.closed} handle through to the planner so retries share one
    cached closure. *)
val plan :
  ?excluded:Server.t list ->
  ?closed:Chase.closed ->
  helpers:Server.t list ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  (result, failure) Stdlib.result

val pp_rescue : rescue Fmt.t
