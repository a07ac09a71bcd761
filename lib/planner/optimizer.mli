(** Two-step distributed query optimization (Section 5).

    The paper situates its algorithm inside the classical two-step
    optimizer \[12\]: first pick a good logical plan, then assign
    operations to servers. This module implements the first step on top
    of {!Safe_planner}: it enumerates alternative left-deep join orders
    of the FROM clause (every prefix connected through the query's join
    conditions), runs the Figure-6 algorithm on each, and keeps the
    cheapest {e feasible} combination under a {!Cost.model}.

    Because authorizations constrain who may see what, join order
    affects more than cost: an order can be infeasible while another
    one is safe — reordering {e recovers feasibility}, not just
    performance (experiment EXP-G). A condition is attached to the
    first position where all its relations are joined; orders that
    would turn a join equality into a post-hoc selection (changing the
    information profile) are skipped. *)

open Relalg

type outcome =
  | Feasible of Assignment.t * float  (** assignment and estimated cost *)
  | Infeasible of int  (** node at which the greedy planner gave up *)

type explored = {
  order : string list;  (** FROM relations, in the explored order *)
  plan : Plan.t;
  outcome : outcome;
}

type t = {
  best : explored option;  (** cheapest feasible order, if any *)
  explored : explored list;  (** everything tried, in exploration order *)
  truncated : bool;  (** hit [max_orders] before exhausting orders *)
}

(** [optimize model catalog policy query] explores up to [max_orders]
    (default [720]) join orders. [config] is passed through to the
    planner. The original order is always explored first, so
    [List.hd t.explored] reports the paper-default behaviour. *)
val optimize :
  ?max_orders:int ->
  ?config:Safe_planner.config ->
  Cost.model ->
  Catalog.t ->
  Authz.Policy.t ->
  Query.t ->
  t

(** Orders whose every prefix is connected (and condition-preserving),
    original order first, then at most [max_orders] (default [720])
    others in depth-first sequence: bases in FROM order, each extension
    in FROM order. A query that names a relation twice, or joins more
    than [Sys.int_size - 1] relations, has only its original order. *)
val valid_orders : ?max_orders:int -> Query.t -> string list list

(** {1 The served join order}

    A plan miss ranks the valid orders by the summed rows of their
    joins under a {!Cost.model}, with no safety planning, and plans the
    cheapest. The ranking reads only catalog-level inputs (the model's
    declared or uniform cardinalities), never instance statistics: a
    plan chosen from the data would itself disclose the data. *)

(** [estimate model q order] is the summed rows of the joins of
    [Query.to_plan (reorder q order)] under [model]: exactly the
    sum, bottom join first, of {!Cost.node_rows} over its join nodes,
    computed incrementally without building the query or its plan.
    [order] must be a valid order of [q].
    @raise Invalid_argument if [order] is not a permutation of [q]'s
    FROM clause. *)
val estimate : Cost.model -> Query.t -> string list -> float

(** [rank model q] is the valid order with the least {!estimate}, or
    [None] when no order is strictly cheaper than the SQL order (a tie
    keeps the SQL order, so a query without a selective WHERE conjunct
    is never reordered). One depth-first pass over the query's join
    graph as {!valid_orders} walks it, pruning every prefix whose joins
    already cost as much as the best order so far; it stops after 720
    complete or pruned orders, keeping the best found. Among equally
    cheap alternatives the first in that sequence wins. A query that
    names a relation twice, or joins more than [Sys.int_size - 1]
    relations, is not ranked. *)
val rank : Cost.model -> Query.t -> string list option

(** The model plan misses rank with: [Cost.uniform ~card:1000.]. It
    reads no instance, and under it only which FROM relations carry a
    pushed WHERE conjunct (and the join graph) can separate two
    orders. *)
val rank_model : Cost.model

(** [served q plan_with] is the plan a miss serves and its planning
    outcome: [plan_with] (the Figure-6 planner, say) on the plan of the
    order {!rank} finds under {!rank_model}; on the SQL order's plan
    when the SQL order ranks cheapest, or when the ranked order's
    planning fails, in which case the outcome is the SQL order's,
    failure included. [plan_with] runs at most twice, and
    the SQL order's plan is only built when it is planned. Recovering
    feasibility by trying every order is {!optimize}'s job. *)
val served :
  Query.t ->
  (Plan.t -> ('a, 'e) result) ->
  Plan.t * ('a, 'e) result

(** Rebuild the query with its FROM clause permuted to [order]
    ({!Relalg.Query.permute}: no catalog lookup). Each step's ON
    condition is the merge of the query's conditions that attach there,
    oriented with the joined relation on the right.
    @raise Invalid_argument if [order] is not a valid order of the
    query's relations. *)
val reorder : Query.t -> string list -> Query.t
