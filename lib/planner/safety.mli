(** The data releases entailed by an executor assignment, and the
    safety decision of Definition 4.2.

    This module is deliberately independent of the planning algorithm:
    it re-derives, from first principles (Figure 5), every relation that
    crosses a server boundary under a given assignment, together with
    its profile. The planner is {e tested against} this module, and the
    runtime audit of the simulator mirrors it on concrete data. *)

open Relalg
open Authz

(** What data a flow carries — used by the cost model to size it. *)
type payload =
  | Full_result of int
      (** complete result of the sub-plan rooted at node [id] (regular
          join, or proxy transfer to a third party) *)
  | Join_attributes of int
      (** [π_J] of the result of node [id] — step 2 of the semi-join *)
  | Semijoin_result of { node : int; slave_child : int }
      (** the slave's operand (sub-plan [slave_child]) semi-joined with
          the master's join attributes, at join node [node] — step 4 of
          the semi-join; its cardinality is bounded by both the slave
          operand and the join result *)
  | Matched_keys of { node : int; side_child : int }
      (** coordinator join: the join-column values of [side_child] that
          have a partner on the other side, sent by the coordinator *)

type flow = {
  at : int;  (** join node whose execution causes the flow *)
  sender : Server.t;
  receiver : Server.t;
  profile : Profile.t;  (** information exposure of the flow *)
  payload : payload;
}

type error =
  | Unassigned_node of int
  | Leaf_not_at_home of { node : int; expected : Server.t; got : Server.t }
  | Unary_moved of { node : int; expected : Server.t; got : Server.t }
  | Master_not_an_operand of int
      (** join master is neither child's executor (only allowed in
          third-party mode) *)
  | Slave_not_other_operand of int
      (** semi-join slave is not the executor of the non-master child *)

val pp_error : error Fmt.t

(** Profile of the sub-plan rooted at a node (Figure 4 folded
    bottom-up). *)
val profile_of : Plan.node -> Profile.t

(** The condition of a join node, re-oriented (if needed) so that its
    left attributes are produced by the given left child. *)
val oriented_cond : Joinpath.Cond.t -> Plan.node -> Joinpath.Cond.t

(** [flows ~third_party catalog plan assignment] derives all
    cross-server data flows. Checks the structural constraints of
    Definition 4.1 (leaves at their storage server, unary operations at
    their operand's executor, join masters chosen among the operands'
    executors — unless [third_party] is [true], in which case an
    outside master receives both operands in full, per footnote 3). *)
val flows :
  ?third_party:bool ->
  Catalog.t ->
  Plan.t ->
  Assignment.t ->
  (flow list, error) result

(** A flow not admitted by the policy. *)
type violation = { flow : flow }

(** [check ~third_party catalog policy plan assignment] decides
    Definition 4.2: [Ok flows] when every entailed view is authorized
    (each flow paired with no violation), [Error] listing the
    unauthorized flows otherwise. Structural errors are reported
    through [Error (`Structure e)]. A caller holding a chase handle
    passes its {!Chase.closure} as [policy]. *)
val check :
  ?third_party:bool ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  Assignment.t ->
  (flow list, [ `Structure of error | `Violations of violation list ]) result

(** [is_safe] is [check] collapsed to a boolean. *)
val is_safe :
  ?third_party:bool ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  Assignment.t ->
  bool

(** [result of n3], [join attributes of n3], ... — a short phrase
    naming what the flow carries, suitable for message-provenance
    notes. *)
val pp_payload : payload Fmt.t

val pp_flow : flow Fmt.t
val pp_violation : violation Fmt.t
