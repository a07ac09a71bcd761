(** Authorizations (Definition 3.1): rules

    [\[Attributes, Join Path\] -> Server]

    meaning that [Server] is authorized to view the set [Attributes]
    for which the joins of the involved relations satisfy [Join Path].

    The join path must include (at least) every relation owning one of
    the attributes whenever it is non-empty; when empty, all attributes
    must come from one relation (Definition 3.1, condition 2).
    Relations appearing in the path but owning no released attribute
    encode {e connectivity constraints} and {e instance-based
    restrictions} (Section 3.1). *)

open Relalg

(** A rule carries its interned identities ({!Intern}), computed once
    when it is built:
    - [id] is the rule's: [a.id = b.id] iff [equal a b];
    - [attrs_id] is [Intern.attrs_id attrs] and [path_id] is
      [Intern.path_id path].

    Policies, the chase and certificates read them instead of
    re-hashing the rule's sets. *)
type t = private {
  attrs : Attribute.Set.t;
  path : Joinpath.t;
  server : Server.t;
  id : int;
  attrs_id : int;
  path_id : int;
}

type error =
  | Empty_attributes
  | Attributes_not_covered of Attribute.Set.t
      (** with a non-empty path: attributes of relations that the path
          does not touch *)
  | Multiple_relations_without_path of string list
      (** empty path but attributes from several relations *)

val pp_error : error Fmt.t

(** [make ~attrs ~path server] checks Definition 3.1. A single-relation
    attribute set with an empty path is always fine; a non-empty path
    must mention every relation contributing attributes. *)
val make :
  attrs:Attribute.Set.t -> path:Joinpath.t -> Server.t -> (t, error) result

(** Like {!make}. @raise Invalid_argument on rule violations. *)
val make_exn : attrs:Attribute.Set.t -> path:Joinpath.t -> Server.t -> t

(** Constructor for {e negative} rules (open policies, footnote 1).
    A denial may name attributes of several relations with an empty
    path — "never this association, in any join context" — so only the
    non-emptiness of [attrs] is enforced.
    @raise Invalid_argument on an empty attribute set. *)
val make_denial : attrs:Attribute.Set.t -> path:Joinpath.t -> Server.t -> t

(** Relations mentioned by the rule (owners of [attrs] plus relations of
    the path). *)
val relations : t -> string list

val compare : t -> t -> int
val equal : t -> t -> bool

(** [\[{...}, {...}\] -> S] as in Figure 3. *)
val pp : t Fmt.t

val to_string : t -> string
