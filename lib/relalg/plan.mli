(** Query tree plans: algebra expressions with numbered nodes.

    The planner and the execution engine need stable node identities
    (the paper writes [n_0 ... n_6] in Figures 2 and 7). Nodes are
    numbered breadth-first from the root — exactly the labelling used by
    the paper's figures. *)

type t

type node = private {
  id : int;
  op : op;
}

and op =
  | Leaf of Schema.t
  | Project of Attribute.Set.t * node
  | Select of Predicate.t * node
  | Join of Joinpath.Cond.t * node * node
      (** sided: the condition's left attributes are the left node's *)

(** Number an expression (validating it first). Every join condition
    is stored sided ({!Algebra.sided}): its left attributes come from
    the left child and its right attributes from the right child, so
    no consumer of a plan re-orients a condition.
    @raise Invalid_argument on expressions that fail
    {!Algebra.validate}. *)
val of_algebra : Algebra.t -> t

(** Forget the numbering. *)
val to_algebra : t -> Algebra.t

val root : t -> node

(** All nodes, by increasing id (breadth-first order). *)
val nodes : t -> node list

val node : t -> int -> node option
val size : t -> int
val join_count : t -> int

(** Output attributes of the sub-plan rooted at a node. *)
val output : node -> Attribute.Set.t

(** Node label, ["n4"]. *)
val label : node -> string

(** The relations of the leaves, left to right: the FROM order of a
    plan built from a query. *)
val relations : t -> string list

(** Children of a node (0, 1 or 2). *)
val children : node -> node list

(** One line per node: [n0: π{...} (n1)]. *)
val pp : t Fmt.t

(** Indented tree rendering with node labels. *)
val pp_tree : t Fmt.t

val to_string : t -> string
