(** Selection conditions for the WHERE clause.

    The security model only needs the {e set of attributes} a condition
    mentions (the [R^sigma] component of a profile, Definition 3.2); the
    execution engine additionally needs to evaluate it on tuples. *)

type comparison = Eq | Neq | Lt | Le | Gt | Ge

type operand =
  | Const of Value.t
  | Attr of Attribute.t

type t =
  | True
  | Cmp of Attribute.t * comparison * operand
  | And of t * t
  | Or of t * t
  | Not of t

val comparison_of_string : string -> comparison option
val pp_comparison : comparison Fmt.t

(** Logical complement of a comparison over non-NULL values:
    [Eq ↔ Neq], [Lt ↔ Ge], [Le ↔ Gt]. Used to push [Not] down to the
    atoms so negation preserves the NULL contract below. *)
val negate_comparison : comparison -> comparison

(** [compare_values c va vb] is the atom semantics shared by every
    executor: false whenever [va] or [vb] is [Null], otherwise the
    comparison under {!Value.compare}. *)
val compare_values : comparison -> Value.t -> Value.t -> bool

(** Conjunction of a list; [True] for the empty list. *)
val conj : t list -> t

(** Attributes mentioned anywhere in the condition (including on the
    right-hand side of comparisons): this is what flows into
    [R^sigma]. *)
val attributes : t -> Attribute.Set.t

(** [eval lookup t] evaluates [t] on a tuple presented as a lookup
    function.

    {b NULL contract (two-valued).} [Null] is uniformly non-matching:
    a comparison with a [Null] operand evaluates to false under {e
    every} operator — [NULL = NULL], [NULL <> x], [NULL <= NULL] are
    all false. Negation is pushed down to the atoms ([Not (a = v)]
    evaluates as [a <> v], De Morgan over [And]/[Or]), so a NULL-bearing
    row fails a predicate and its negation alike; plain boolean
    negation would instead promote "no match because NULL" to a match.
    Consequently [σ_p] and [σ_{¬p}] partition the NULL-free rows only:
    rows rejected for NULL satisfy neither. This is SQL's three-valued
    logic with [unknown] collapsed to [false] at every atom.

    Join conditions ({!Joinpath.Cond}) are attribute pairs, not
    predicates, and use {!Value.compare} directly — there NULL keys
    {e do} match each other, in both executors.

    @raise Not_found if [lookup] does. *)
val eval : (Attribute.t -> Value.t) -> t -> bool

(** [compile position t] is [t] as a test on positional rows: every
    attribute is resolved through [position] once, here, and the
    returned function reads [row.(position a)] with {!eval}'s
    semantics, NULL contract included.

    @raise Not_found if [position] does. *)
val compile : (Attribute.t -> int) -> t -> Value.t array -> bool

val pp : t Fmt.t
val to_string : t -> string
