(** Columnar batch executor — dictionary-encoded columns, bitset
    selection vectors, partition-parallel hash joins.

    The default executor ({!module:Relation}, as {!Exec.Reference})
    stores a relation as an array of positional rows of boxed values:
    its operators hash and compare boxed values row by row. This
    executor stores a relation as one int array per column, with values
    interned in a {!Dict} shared across the operands of a run: equality
    of values is equality of ints, selections evaluate once per
    {e distinct} code and combine as bitsets, and hash joins partition
    rows by key hash and build/probe each partition on its own domain
    (OCaml 5 parallelism). Selection is lazy — [select] and [semi_join]
    only narrow a batch's selection vector, no row moves — and every
    consumer skips the dead rows. Encoding and decoding go through
    {!Relation.rows} and {!Relation.of_arrays}, one row at a time.
    Results are identical to the default executor's, and to the
    tree-set twin's in the test-only oracle — the invariant the
    differential suite and the in-bench equality assertions enforce.

    Set semantics are maintained as a representation invariant: the
    rows of a batch are distinct. Join keys compare like
    {!Value.compare} classes — [Int 3] and [Float 3.] share a code,
    and NULL keys match each other in joins (conditions are attribute
    pairs, not predicates; see the NULL contract in
    {!Predicate.eval}). *)

(** Shared value dictionary: interns values to dense int codes, one
    code per {!Value.equal} class. *)
module Dict : sig
  type t

  val create : unit -> t
  val intern : t -> Value.t -> int
  val value : t -> int -> Value.t

  (** Number of distinct interned values. *)
  val size : t -> int
end

type t

(** [of_relation dict r] encodes [r] column-by-column, interning every
    value into [dict]. Batches meant to be joined should share a
    dictionary (operators translate codes otherwise). *)
val of_relation : Dict.t -> Relation.t -> t

val to_relation : t -> Relation.t
val header : t -> Attribute.t list
val cardinality : t -> int

(** The five physical operators, each with the contract (including
    [Invalid_argument] conditions) of its {!module:Relation}
    namesake. [equi_join]'s [partitions] fixes the number of hash
    partitions (and domains); the default is derived from
    [Domain.recommended_domain_count]. Results are
    partition-invariant — a property test enforces the one-round
    parallel-correctness condition: every pair of joinable rows meets
    in exactly one partition. *)

val project : Attribute.Set.t -> t -> t

val select : Predicate.t -> t -> t

val equi_join : ?partitions:int -> Joinpath.Cond.t -> t -> t -> t

val semi_join : Joinpath.Cond.t -> t -> t -> t

val natural_join : t -> t -> t

(** [eval ~lookup e] evaluates [e] batch-natively: leaves are encoded
    once into a shared dictionary, every operator stays columnar, and
    only the root is decoded back to a {!Relation.t}. Same semantics
    as {!Algebra.eval} on the reference executor.
    @raise Invalid_argument on expressions that do not
    {!Algebra.validate}. *)
val eval : lookup:(Schema.t -> Relation.t) -> Algebra.t -> Relation.t

(** The batch operators behind the executor signature: each call
    encodes its operands, runs columnar and decodes the result, so the
    distributed engine can run node-by-node on batches. *)
module Exec : Exec.S
