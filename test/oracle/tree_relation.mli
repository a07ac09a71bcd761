(** The tree-set relation: a header plus a balanced-tree set of
    {!Relalg.Tuple.t} attribute maps, with the tuple-at-a-time
    operators {!Relalg.Relation} had before it became positional. It is
    the differential twin of the positional operators: it shares no
    row array, hash table or dedup pass with them, so a defect there
    cannot show up on both sides of a comparison. Every value and
    contract below is {!Relalg.Relation}'s. *)

open Relalg

type t

val make : Attribute.t list -> Tuple.t list -> t
val of_rows : Schema.t -> Value.t list list -> t
val header : t -> Attribute.t list
val attribute_set : t -> Attribute.Set.t

(** Ascending under {!Relalg.Tuple.compare}: the order
    {!Relalg.Relation.tuples} keeps. *)
val tuples : t -> Tuple.t list

val cardinality : t -> int
val is_empty : t -> bool
val byte_size : t -> int
val project : Attribute.Set.t -> t -> t
val select : Predicate.t -> t -> t
val equi_join : Joinpath.Cond.t -> t -> t -> t
val semi_join : Joinpath.Cond.t -> t -> t -> t
val natural_join : t -> t -> t
val union : t -> t -> t
val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string

(** [of_relation r] rebuilds [r] through {!Relalg.Relation.header} and
    {!Relalg.Relation.tuples}; [to_relation] goes back through
    {!Relalg.Relation.make}. *)
val of_relation : Relation.t -> t

val to_relation : t -> Relation.t

(** [eval ~lookup e] is {!Relalg.Algebra.eval} on the twin: one call
    to [lookup] per leaf, each join oriented with
    {!Relalg.Algebra.oriented_cond}.
    @raise Invalid_argument on expressions that do not
    {!Relalg.Algebra.validate}. *)
val eval : lookup:(Schema.t -> t) -> Algebra.t -> t
