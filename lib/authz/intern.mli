(** Dense ids for attributes and join conditions, bitsets over them,
    and hash-consed canonical keys for join paths, attribute sets,
    rules and relation profiles.

    Every distinct attribute and every distinct join condition gets a
    small int id, counting up from 0. An attribute set is then the
    bitset of its attributes' ids and a join path the bitset of its
    conditions' ids ({!Bits}): both are canonical, so equal sets give
    structurally equal bitsets, and union, subset and equality are word
    loops instead of walks of string-ordered trees.

    Attribute sets and join paths also get ids of their own (a bitset
    hash lookup), and so do rules and profiles. Ids are process-global —
    shared by every policy in the process and never freed — so a rule
    seen by one closure keeps its id for the next. {!Authorization.make}
    interns every rule it builds and stores its bits and ids in the
    rule.

    Growth: the attribute and condition interners hold one entry per
    distinct attribute or condition the process meets, so they are
    bounded by its catalogs and join graphs. The attribute-set, path,
    rule and profile tables hold one entry per distinct set, path, rule
    or profile that is built, never per candidate the chase examines. *)

open Relalg

(** Immutable sets of small non-negative ints (ids), one bit each.

    A bitset is an array of words with no trailing zero word, so equal
    sets are structurally equal whatever the order the ids were added
    in, and whatever ids were interned since. Every operation below
    also reads a {!scratch}'s {!view}, which may end in zero words, as
    the set it holds. *)
module Bits : sig
  type t

  val empty : t

  (** The set of the given ids. @raise Invalid_argument on a negative
      id. *)
  val of_list : int list -> t

  (** Ascending. *)
  val elements : t -> int list

  val iter : (int -> unit) -> t -> unit
  val union : t -> t -> t
  val subset : t -> t -> bool
  val equal : t -> t -> bool

  (** Equal sets hash alike. *)
  val hash : t -> int

  module Tbl : Hashtbl.S with type key = t

  (** A mutable bitset the chase computes each candidate in, so that
      examining a candidate allocates nothing: [union_into] and
      [add_into] write it in place (growing it only when an operand is
      wider than any before), and {!view} reads it as a {!t}. *)
  type scratch

  val scratch : unit -> scratch

  (** [union_into s a b] sets [s] to [a ∪ b]. *)
  val union_into : scratch -> t -> t -> unit

  (** [add_into s id] adds [id] to [s]. *)
  val add_into : scratch -> int -> unit

  (** The set [s] holds now. It shares [s]'s storage: it is valid
      until [s]'s next write, and must never be stored — in a
      {!Tbl} key or a rule, say. *)
  val view : scratch -> t
end

(** [attr_id a] interns attribute [a]. *)
val attr_id : Attribute.t -> int

(** [cond_id c] interns the canonical ({!Joinpath.Cond.pairs}) form of
    join condition [c]: a condition and its flip share an id. *)
val cond_id : Joinpath.Cond.t -> int

(** The bitset of [attr_id] of each attribute of the set. *)
val attrs_bits : Attribute.Set.t -> Bits.t

(** The bitset of [cond_id] of each condition of the path. *)
val path_bits : Joinpath.t -> Bits.t

(** Interned attribute set: equal sets get equal ids. *)
val attrs_id : Attribute.Set.t -> int

(** [attrs_id] of the set whose {!attrs_bits} are given. *)
val attrs_id_of_bits : Bits.t -> int

(** Interned join path: equal paths get equal ids. *)
val path_id : Joinpath.t -> int

(** [path_id] of the path whose {!path_bits} are given. *)
val path_id_of_bits : Bits.t -> int

(** Like {!path_id} but never allocates a fresh id: [None] means no
    rule or profile anywhere has used this path, so no closed policy
    can admit it. *)
val find_path : Joinpath.t -> int option

(** {!find_path} on a path's bits (a scratch {!Bits.view} included):
    [-1] when no path with these bits has an id. *)
val find_path_bits : Bits.t -> int

(** Interned [(server, attrs_id, path_id)] triple — the identity of a
    rule, which {!Authorization.make} stores in the rule. *)
val rule_id_of : Server.t -> attrs_id:int -> path_id:int -> int

(** Interned [(attrs_id pi, path_id join, attrs_id sigma)] triple — the
    identity of a relation profile: equal ids iff [Profile.equal]. The
    knowledge-saturation pass keys its fixpoint on it. *)
val profile_id_of : pi_id:int -> path_id:int -> sigma_id:int -> int
