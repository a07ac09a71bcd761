(** In-memory relation instances and the relational operators the paper
    relies on: projection, selection, equi-join and semi-join.

    A relation instance is a header (ordered attribute list) plus a set
    of tuples. Instances obey set semantics — duplicates are removed —
    matching the paper's relational model.

    {b Representation.} A relation is positional: its header, and an
    array of rows, each a [Value.t array] in header order. Rows are
    distinct under {!Value.equal}, the invariant every operator keeps.
    The header is a {!Header.t} value, built once per operator output.
    Operators are loops over the row arrays. Every operator that
    matches rows runs on one private index: open addressing over row
    numbers, keyed by values at given positions under {!Value.key_hash}
    (not {!Value.hash}, which stays the Bloom filter's), comparing a
    stored row's key positions in place. [project], [union] and the
    constructors deduplicate through it, [equal] and [semi_join] look
    rows up in it, and the joins chain the right operand's rows by key
    and probe with the left's (their output is distinct by
    construction); [select] filters. An operator allocates its output
    and O(n) ints, nothing per row it only looks at; [select] and
    [semi_join] allocate their output plus a survivors mask of one byte
    per operand row, and return the operand itself when every row
    survives. {!Tuple.t}
    attribute maps appear only at the text and printing edges:
    {!make}, {!tuples}, {!pp}.

    {b Representatives.} [Int 3] and [Float 3.] are one value under
    {!Value.equal}, so two rows that differ only between such twins are
    one row, and the first occurrence survives: the first given to
    {!make}, {!of_rows} or {!of_arrays}, [a]'s over [b]'s in
    [union a b], and for [project] the first in its operand's row
    order.

    {b Row order.} {!rows} gives each relation's row order, which every
    operator fixes: the constructors keep their input order (first
    occurrences), [project] its operand's (first occurrences),
    [select] and [semi_join] their operand's, and [union a b] is [a]'s
    rows followed by those of [b]'s rows that no row of [a] equals, in
    [b]'s order. The joins follow their left operand's order, and one
    left row's matches follow the right operand's row order. *)

(** A header value: the attribute list, its array and its set, each
    built once and shared by every relation over it. The set is built
    on first use unless a constructor already has it. *)
module Header : sig
  type t

  (** Membership, without building the set. *)
  val mem : t -> Attribute.t -> bool

  (** The position of an attribute of the header.
      @raise Invalid_argument if it is not one. *)
  val position : t -> Attribute.t -> int

  (** Same attributes in the same order (physical equality first). *)
  val equal : t -> t -> bool

  (** [share_set h s] — when [s] holds exactly [h]'s attributes, [s]
      itself is [h]'s set from then on, so a caller holding [s] (a flow
      profile's [pi]) can compare the two physically. Otherwise [h] is
      left alone. *)
  val share_set : t -> Attribute.Set.t -> unit
end

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

(** The header value itself: relations computed by one planned operator
    share it. *)
val header_value : t -> Header.t

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

(** {1 Planned operators}

    Each [plan_*] does once, against its operands' header values, the
    work its namesake above does on every call: the same checks,
    raising the same [Invalid_argument], then the key positions and
    the output header. It returns the output header and a function
    that does only the row work; the namesake is exactly [plan_*]
    applied to its operands' headers, then to the operands.

    The returned function must be given operands over the planned
    headers (the same values, or the same attributes in the same
    order); it reads the positions it computed.
    @raise Invalid_argument when an operand's header differs. *)

val plan_project : Attribute.Set.t -> Header.t -> Header.t * (t -> t)

(** The predicate is compiled once ({!Predicate.compile}); the output
    header is the operand's. *)
val plan_select : Predicate.t -> Header.t -> t -> t

val plan_equi_join :
  Joinpath.Cond.t -> Header.t -> Header.t -> Header.t * (t -> t -> t)

(** The output header is the left operand's. *)
val plan_semi_join : Joinpath.Cond.t -> Header.t -> Header.t -> t -> t -> t

val plan_natural_join : Header.t -> Header.t -> Header.t * (t -> t -> t)

(** Set equality: same attribute set and same set of tuples. *)
val equal : t -> t -> bool

val pp : t Fmt.t
val to_string : t -> string
