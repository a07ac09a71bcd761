(** Atomic values stored in relation instances.

    The model of the paper is schema-level (authorizations talk about
    attributes, not values), but the distributed execution engine
    ({!module:Distsim}) moves concrete tuples around, so we need a small
    dynamically-typed value domain. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

(** Total order over values. Values of distinct runtime types are ordered
    by a fixed type rank ([Null < Bool < Int < Float < String]), except
    that [Int] and [Float] compare numerically against each other, as an
    equi-join between an integer and a float column should behave
    arithmetically.

    The cross-type comparison is {e exact}: an [Int] is never rounded
    through [float_of_int], so [Int 9007199254740993] (2{^53}+1) is
    strictly greater than [Float 9007199254740992.] even though the two
    are indistinguishable after conversion. [Int x = Float y] holds
    exactly when [y] is an integral float and [y = x] as mathematical
    integers. [nan] orders below every value of numeric type (matching
    [Float.compare]). *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [hash v] is compatible with {!equal}: ints exactly representable as
    floats hash like their float image (so [Int 3] and [Float 3.] — which
    are [equal] — collide), while ints above 2{^53} that no float equals
    hash on their own. *)
val hash : t -> int

(** [key_hash v] is also compatible with {!equal}, and boxes nothing: an
    [Int] hashes as itself, an integral [Float] inside the int range as
    the [Int] it equals, and any other value through [Hashtbl.hash].
    It is the key hash of {!Relation}'s row index, which mixes it with
    a multiply, and it is not {!hash}: the Bloom filter and the batch
    dictionary hash with {!hash}, so their bits do not move with it. *)
val key_hash : t -> int

(** Name of the runtime type, e.g. ["int"]. *)
val type_name : t -> string

(** Width in bytes used by the communication cost model: 1 for [Null]
    and [Bool], 8 for [Int] and [Float], string length for [String]. *)
val byte_width : t -> int

(** Parse a literal: [NULL], [true]/[false], integers, floats, and
    single-quoted strings; anything else is a bare string. *)
val of_literal : string -> t

val pp : t Fmt.t
val to_string : t -> string
