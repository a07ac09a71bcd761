(** Communication cost model.

    The paper argues (Section 4) that semi-joins "minimize
    communication, which also benefits security". This module estimates
    the bytes moved by an assignment so that baselines can be compared
    and the exhaustive planner can pick a minimum-cost safe assignment.
    The distributed simulator measures the {e actual} bytes; benches
    report both. *)

open Relalg

type model = {
  card : string -> float;  (** base-relation cardinality, by name *)
  join_selectivity : float;
      (** |L ⋈ R| ≈ selectivity × |L| × |R| — the standard independence
          estimate over the cross product, clamped to [\[0, |L|·|R|\]].
          A key–foreign-key join has selectivity 1/|key domain|. *)
  select_selectivity : float;  (** fraction surviving a selection *)
  attr_bytes : float;  (** average width of one attribute value *)
}

(** [uniform ~card] — every base relation has [card] rows, join
    selectivity [1/card] (key–foreign-key: each foreign-key row finds
    exactly one partner, so a join of two base relations again has
    [card] rows), 0.5 for selections, 8-byte attributes. *)
val uniform : card:float -> model

(** Estimated rows produced by the sub-plan rooted at the node. Joins
    estimate [sel · |L| · |R|] clamped to the cross product (a
    selectivity beyond 1.0 or below 0.0 is a configuration artefact,
    not a cardinality). *)
val node_rows : model -> Plan.node -> float

(** [join_prefix model ~rows ~sums d leaves f] extends a left-deep
    prefix by one join, in place: given the prefix's rows [rows.(d-1)]
    and the summed rows of its joins [sums.(d-1)], it sets [rows.(d)] to
    {!node_rows}' estimate of a join of the prefix with a leaf of
    [leaves.(f)] rows, and [sums.(d)] to
    [sums.(d-1) +. rows.(d)]. Over a left-deep plan these are
    {!node_rows} of each join and their sum, bottom join first; the
    arrays keep every number unboxed. *)
val join_prefix :
  model ->
  rows:float array ->
  sums:float array ->
  int ->
  float array ->
  int ->
  unit

(** Estimated bytes of one flow (its payload sized with the model).
    [Matched_keys]/[Semijoin_result] payloads stay bounded by
    [min(join result, slave operand)], consistent with {!node_rows}'s
    join estimate. *)
val flow_bytes : model -> Plan.t -> Safety.flow -> float

(** Total estimated bytes moved by the assignment: the sum over the
    flows derived by {!Safety.flows}, or the structural error that
    makes the assignment unusable. *)
val assignment_cost_checked :
  ?third_party:bool ->
  model ->
  Catalog.t ->
  Plan.t ->
  Assignment.t ->
  (float, Safety.error) result

(** {!assignment_cost_checked} collapsed to a float: structural errors
    yield [infinity] (an unusable assignment never wins a comparison)
    and log the reason on the [cisqp.cost] source at debug level. *)
val assignment_cost :
  ?third_party:bool ->
  model ->
  Catalog.t ->
  Plan.t ->
  Assignment.t ->
  float
