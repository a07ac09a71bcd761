(** Select-from-where queries (Section 2):

    [SELECT A FROM R1 JOIN R2 ON c1 JOIN ... WHERE C]

    corresponding to [π_A(σ_C(R1 ⋈_{c1} ... ⋈_{cn} Rn+1))]. The FROM
    clause is left-deep, as in the paper's examples. *)

type t = private {
  select : Attribute.t list;  (** projected attributes, in order *)
  base : Schema.t;  (** first FROM relation *)
  joins : (Schema.t * Joinpath.Cond.t) list;
      (** subsequent [JOIN R ON c], in order; each condition sided with
          the accumulated left operand first *)
  where : Predicate.t;
}

type error =
  | Catalog of Catalog.error
  | Join_condition_unrelated of string * Joinpath.Cond.t
      (** the ON condition of [JOIN R] does not relate [R] to the
          previously accumulated relations *)
  | Select_out_of_scope of Attribute.t
  | Where_out_of_scope of Attribute.t
  | Empty_select

val pp_error : error Fmt.t

(** Build and check a query against a catalog. Each join condition may
    be spelled in either orientation; it is normalised so that its left
    side belongs to the relations accumulated so far. *)
val make :
  Catalog.t ->
  select:Attribute.t list ->
  base:string ->
  joins:(string * Joinpath.Cond.t) list ->
  where:Predicate.t ->
  (t, error) result

(** Relations of the FROM clause, in order. *)
val relations : t -> string list

(** [permute t ~base ~joins] is [t] with its FROM clause spelled in
    another order: [base] and the [joins] name the same relations as
    [t]'s FROM clause, their conditions hold the same equality pairs as
    [t]'s, and each condition has the relations before it on the left
    and the relation it joins on the right. SELECT and WHERE carry
    over, their scope unchanged. No catalog lookup: it checks names and
    pairs only.
    @raise Invalid_argument otherwise. *)
val permute :
  t -> base:Schema.t -> joins:(Schema.t * Joinpath.Cond.t) list -> t

(** The join path of the whole query. *)
val join_path : t -> Joinpath.t

(** Compile to a minimized algebra expression: left-deep join tree;
    projections pushed down to every operand ("as soon as possible",
    Section 2 — important for security, since only the attributes
    needed for the computation are disclosed); selection conjuncts
    local to one relation pushed to their leaf; a final projection on
    [select] when it removes attributes. *)
val to_algebra : t -> Algebra.t

(** [to_plan q] is [Plan.of_algebra (to_algebra q)]. *)
val to_plan : t -> Plan.t

(** Canonical key for plan caching: queries equal up to SELECT-list
    order, WHERE-conjunct order, join-condition orientation, keyword
    case and whitespace share one key. The FROM/JOIN order is
    significant (it fixes the left-deep plan shape). *)
val canonical : t -> string

(** SQL rendering. *)
val pp : t Fmt.t

val to_string : t -> string
