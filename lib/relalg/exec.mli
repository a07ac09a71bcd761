(** Executor signature — the physical operators behind the algebra.

    Every evaluator in the system ({!Algebra.eval} centrally, the
    distributed engine node-by-node) runs queries through exactly five
    physical operators. This module names that contract so an executor
    can be selected {e per run}: the positional default ({!Reference},
    the operators of {!module:Relation}) or the columnar batch executor
    ([Batch.Exec]). Both implement the same set semantics, and both are
    differentially tested against the tuple-at-a-time operators over
    balanced-tree sets that {!module:Relation} had before it became
    positional: that twin lives in the test-only [Oracle] library
    ([Oracle.Tree_relation]), out of every production library. *)

module type S = sig
  val name : string

  (** Each operator has the contract of its {!module:Relation}
      namesake, [Invalid_argument] conditions included. *)

  val project : Attribute.Set.t -> Relation.t -> Relation.t

  val select : Predicate.t -> Relation.t -> Relation.t

  val equi_join : Joinpath.Cond.t -> Relation.t -> Relation.t -> Relation.t

  val semi_join : Joinpath.Cond.t -> Relation.t -> Relation.t -> Relation.t

  val natural_join : Relation.t -> Relation.t -> Relation.t
end

(** The positional, hash-based operators of {!module:Relation}: the
    default executor. *)
module Reference : S
