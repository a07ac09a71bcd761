(** Relational algebra expressions — the operator trees of
    [π_A(σ_C(R1 ⋈ ... ⋈ Rn+1))] queries (Section 2).

    An expression is the {e logical} side of a query tree plan; the
    numbered tree handed to the planner is {!module:Plan}. *)

type t =
  | Relation of Schema.t
  | Project of Attribute.Set.t * t
  | Select of Predicate.t * t
  | Join of Joinpath.Cond.t * t * t

type error =
  | Projection_out_of_scope of Attribute.Set.t
  | Selection_out_of_scope of Attribute.Set.t
  | Join_attributes_misplaced of Joinpath.Cond.t
  | Overlapping_operands of Attribute.Set.t

val pp_error : error Fmt.t

(** Output attributes of the expression (its header). *)
val output : t -> Attribute.Set.t

(** Names of base relations appearing as leaves, leftmost first. *)
val relations : t -> string list

(** Structural checks: projections/selections within scope, each join
    condition sided correctly (its left attributes produced by the left
    operand, right by the right), operands attribute-disjoint. *)
val validate : t -> (unit, error) result

(** [sided e] is [e] with every join condition sided: spelled with its
    left attributes drawn from the left operand, the condition itself
    when it already is, its flip otherwise. It runs {!validate}'s checks
    in the same pass, computing each node's output once; a sub-tree
    already sided comes back physically unchanged. *)
val sided : t -> (t, error) result

(** [oriented_cond cond ~left_out ~right_out] is [cond] spelled with
    its left attributes drawn from [left_out] and its right from
    [right_out] — the condition itself if already sided, its flip if
    the flipped spelling is, [None] otherwise: the orientation
    {!sided} applies at every join. *)
val oriented_cond :
  Joinpath.Cond.t ->
  left_out:Attribute.Set.t ->
  right_out:Attribute.Set.t ->
  Joinpath.Cond.t option

(** [eval ~lookup e] evaluates [e] bottom-up on the instances provided
    by [lookup] (one call per leaf). This is the centralized reference
    semantics that the distributed engine is tested against.
    [executor] selects the physical operators (default
    {!Exec.Reference}; pass [(module Batch.Exec)] for the columnar
    executor — results are identical by contract).
    @raise Invalid_argument on expressions that do not {!validate}. *)
val eval :
  ?executor:(module Exec.S) -> lookup:(Schema.t -> Relation.t) -> t -> Relation.t

(** Number of [Join] nodes. *)
val join_count : t -> int

(** Number of nodes. *)
val size : t -> int

(** Multi-line indented tree rendering. *)
val pp : t Fmt.t

val to_string : t -> string
