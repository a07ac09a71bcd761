(** Relation schemas.

    A schema is [R(A1, ..., An)] with a primary key (underlined in the
    paper's Figure 1). Schemas are value-only descriptions; instances
    live in {!module:Relation}. *)

type t = private {
  name : string;
  attributes : Attribute.t list;  (** in declaration order *)
  attribute_set : Attribute.Set.t;  (** [attributes] as a set, built once *)
  key : Attribute.t list;  (** primary key, subset of [attributes] *)
}

(** [make name ~key attrs] declares relation [name] with attribute
    names [attrs] (in order) and primary key [key] (a sublist of
    [attrs]).

    @raise Invalid_argument on duplicate attribute names, an empty
    attribute list, or a key attribute not among [attrs]. *)
val make : string -> key:string list -> string list -> t

val name : t -> string
val attributes : t -> Attribute.t list

(** The attributes as a set: the one value {!make} built, so callers
    that compare it physically (a relation profile's [pi], a relation
    header) share it. *)
val attribute_set : t -> Attribute.Set.t

val key : t -> Attribute.t list

(** [attribute t n] is the attribute of [t] called [n], if any. *)
val attribute : t -> string -> Attribute.t option

(** [mem t a] tests whether [a] belongs to [t] (by full identity). *)
val mem : t -> Attribute.t -> bool

val arity : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

(** Prints [R(A1, A2*, ...)], key attributes marked with [*]. *)
val pp : t Fmt.t

val to_string : t -> string
