(** Third-party joins — the extension of footnote 3.

    When no operand server can safely execute a join, "a safe
    assignment could exist in case of a third party acting either as a
    proxy for one of the two operands or as a coordinator for them".
    {!plan} lets the planner fall back, at a join no operand server
    can execute, on an outside server [T] drawn from [helpers]: as a
    proxy when [T] may view {e both} operands in full (both executors
    ship their results to [T], which computes a regular join and
    continues as the node's executor), or as a coordinator when [T] may
    view both operands' join columns (it matches them for an operand
    server that runs the join).

    An assignment with a rescue is validated by
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
  rescues : rescue list;  (** empty when no join needed a helper *)
  trace : Safe_planner.trace;  (** the planner's trace of [assignment] *)
}

type failure = { failed_at : int  (** the node no server could execute *) }

(** [plan ~helpers catalog policy p] — one Figure-6 traversal,
    {!Safe_planner.plan} with [~helpers], whose rescues are read off
    the resulting assignment with {!rescues_of}. [excluded]
    (default none) bars servers from every role, as in
    {!Safe_planner.plan} — the failover path of {!Distsim.Recover}.
    [closed] passes a {!Chase.closed} handle through to the planner so
    replans share one cached closure. *)
val plan :
  ?excluded:Server.t list ->
  ?closed:Chase.closed ->
  helpers:Server.t list ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  (result, failure) Stdlib.result

(** [rescues_of plan assignment] — the joins of [plan] that
    [assignment] gives a third party: those {!Safety.protocol} decodes,
    in third-party mode, as [Coordinated] or [Proxy]. In node order;
    empty iff the assignment needs no [Safety.check ~third_party:true].
    A join whose node or operands have no executor, or whose executor
    does not decode, is skipped, so an incomplete or invalid assignment
    raises nothing here.
    {!Analysis.Certificate.certify} works out an assignment's proof
    mode with it. *)
val rescues_of : Plan.t -> Assignment.t -> rescue list

val pp_rescue : rescue Fmt.t
