(** In-memory relation instances and the relational operators the paper
    relies on: projection, selection, equi-join and semi-join.

    A relation instance is a header (ordered attribute list) plus a set
    of tuples. Instances obey set semantics — duplicates are removed —
    matching the paper's relational model.

    {b Representation.} A relation is positional: its header, and an
    array of rows, each a [Value.t array] in header order. Rows are
    distinct under {!Value.equal}, the invariant every operator keeps.
    Operators are loops over the row arrays, hashing rows with
    {!Value.hash}: [project], [union] and the constructors deduplicate
    through a hash set, the joins build a hash index on the right
    operand's key and probe it with the left's (their output is
    distinct by construction), and [select] and [semi_join] filter.
    {!Tuple.t} attribute maps appear only at the text and printing
    edges: {!make}, {!tuples}, {!pp}.

    {b Representatives.} [Int 3] and [Float 3.] are one value under
    {!Value.equal}, so two rows that differ only between such twins are
    one row, and the first occurrence survives: the first given to
    {!make}, {!of_rows} or {!of_arrays}, [a]'s over [b]'s in
    [union a b], and for [project] the first in its operand's row
    order. That order is deterministic though not exposed: the
    constructors keep their input order, [select] and [semi_join] keep
    their operand's, and the joins follow their left operand's. *)

type t

(** [make attrs tuples] builds an instance.
    @raise Invalid_argument if the header is empty or some tuple does
    not bind exactly the header attributes. *)
val make : Attribute.t list -> Tuple.t list -> t

(** Instance of a base relation from rows of values listed in schema
    attribute order.
    @raise Invalid_argument if a row's length differs from the arity. *)
val of_rows : Schema.t -> Value.t list list -> t

(** [of_arrays attrs rows] builds an instance from positional rows,
    each listing its values in [attrs] order, keeping the first
    occurrence of each row. The rows are not copied: the caller must
    not mutate them afterwards.
    @raise Invalid_argument if the header is empty or repeats an
    attribute, or a row's length differs from the header's. *)
val of_arrays : Attribute.t list -> Value.t array array -> t

val header : t -> Attribute.t list
val attribute_set : t -> Attribute.Set.t

(** The tuples, ascending under {!Tuple.compare}: lexicographic by
    {!Value.compare} over the attributes taken in {!Attribute.compare}
    order. *)
val tuples : t -> Tuple.t list

(** The rows, each in {!header} order, distinct under {!Value.equal},
    in the relation's row order. The arrays are the relation's own:
    callers must not mutate them. *)
val rows : t -> Value.t array array

(** Number of rows; constant time. *)
val cardinality : t -> int

val is_empty : t -> bool

(** Sum of tuple byte widths; the unit of the communication cost
    model. *)
val byte_size : t -> int

(** [project attrs t] is [π_attrs(t)] (set semantics: duplicates
    collapse). Header keeps the original attribute order.
    @raise Invalid_argument if [attrs] is empty (a header-less relation
    is not a value — {!make} rejects it, so projection must too) or not
    a subset of the header. *)
val project : Attribute.Set.t -> t -> t

(** [select pred t] is [σ_pred(t)].
    @raise Invalid_argument if the predicate mentions attributes outside
    the header. *)
val select : Predicate.t -> t -> t

(** [equi_join cond l r] joins on [cond]'s left attributes (which must
    belong to [l]) equalling its right attributes (in [r]). A hash join;
    the result header is [l]'s header followed by [r]'s attributes.
    Keys match under {!Value.equal}, so NULL keys match each other.
    Headers must be disjoint (the paper assumes globally distinct
    attribute names).
    @raise Invalid_argument on sided attributes missing from the
    respective operand or on overlapping headers. *)
val equi_join : Joinpath.Cond.t -> t -> t -> t

(** [semi_join cond l r] is [l ⋉_cond r]: the tuples of [l] that join
    with at least one tuple of [r]. Used by step 3 of the semi-join
    protocol of Figure 5. *)
val semi_join : Joinpath.Cond.t -> t -> t -> t

(** Natural join on the shared attributes of the two headers (step 5 of
    the semi-join protocol: [R_Jlr ⋈ R_l]). The shared attribute set
    must be non-empty.
    @raise Invalid_argument if the headers share no attribute. *)
val natural_join : t -> t -> t

(** [union a b] keeps [a]'s header; [b]'s may list the same attributes
    in another order.
    @raise Invalid_argument if the attribute sets differ. *)
val union : t -> t -> t

(** Set equality: same attribute set and same set of tuples. *)
val equal : t -> t -> bool

val pp : t Fmt.t
val to_string : t -> string
