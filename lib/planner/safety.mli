(** The data releases entailed by an executor assignment, and the
    safety decision of Definition 4.2.

    This module is deliberately independent of the planning algorithm:
    it derives, from Figure 5, every relation that crosses a server
    boundary under a given assignment, together with its profile. The
    planner is {e tested against} this module, and the runtime audit of
    the simulator mirrors it on concrete data. *)

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

(** {1 Figure 5, once}

    Every planner, checker, engine, script, lint and figure reads which
    views a join discloses from {!views} and which protocol its
    executor runs from {!protocol}. *)

(** An operand of a join, by its position in the plan. *)
type side = Left | Right

(** What Figure 5 discloses of one operand [X] of a join [X ⋈_J O]. *)
type side_views = {
  full : Profile.t;
      (** [X] in full: what a regular-join master at [O]'s server, or a
          proxy, receives *)
  keys : Profile.t;
      (** [π_J(X)], [X]'s join attributes: what a semi-join slave at
          [O]'s server, or a coordinator, receives *)
  semi : Profile.t;
      (** [π_J(X) ⋈ O]: what a semi-join master at [X]'s server receives
          back from its slave *)
}

type views = {
  left : side_views;
  right : side_views;
  joined : Profile.t;
      (** [l ⋈ r] (Figure 4), the join's own profile. The coordinator
          protocol's matched keys and reduced operand carry its join
          path and selections over their own attributes. *)
}

(** [views cond lp rp] — Figure 5's views of the join [l ⋈_cond r] of
    operands with profiles [lp] and [rp]. [cond] is sided, as
    {!Plan} stores it: its left attributes are [l]'s. *)
val views : Joinpath.Cond.t -> Profile.t -> Profile.t -> views

(** The protocol a join runs under its executor: Definition 4.1's
    [λ_T] read through Figure 5 and footnote 3. A [side] names the
    master's operand. *)
type protocol =
  | Local  (** both operands already reside at the master *)
  | Regular of side  (** the other operand ships in full to the master *)
  | Semi of side * Server.t
      (** semi-join with this slave, the other operand's executor *)
  | Coordinated of side * Server.t * Server.t
      (** coordinator join: the slave (the other operand's executor) and
          the coordinator matching both operands' join columns *)
  | Proxy
      (** the master executes neither operand and receives both in full
          (only with [third_party]) *)

(** [protocol ~node exec ~left ~right] decodes the executor [exec] of
    join node [node] whose operands are executed at [left] and
    [right]. Both operands at the master make the join [Local], whatever
    else [exec] records. Otherwise a master executing neither operand
    is a [Proxy] when [third_party] (default [false]) holds and [exec]
    has neither slave nor coordinator, and [Master_not_an_operand]
    otherwise; a master at one operand runs [Regular] with neither,
    [Semi] with the other operand's executor as slave, [Coordinated]
    with that slave plus a coordinator, and any other slave or a
    coordinator without a slave is [Slave_not_other_operand]. *)
val protocol :
  ?third_party:bool ->
  node:int ->
  Assignment.executor ->
  left:Server.t ->
  right:Server.t ->
  (protocol, error) result

(** [flows ~third_party catalog plan assignment] derives all
    cross-server data flows: sub-plans left to right, each join's
    after its operands'. Checks the structural constraints of
    Definition 4.1 (leaves at their storage server, unary operations at
    their operand's executor, each join's executor decoded by
    {!protocol}). *)
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
