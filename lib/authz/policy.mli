(** Policies: the set [A] of authorizations of the distributed system,
    and the access-control decision of Definition 3.3.

    The default policy is "closed" (Section 3.1): a release is allowed
    only if some authorization explicitly permits it. Footnote 1 notes
    the approach "can be adapted to an open policy scenario, where data
    are visible by default and negative rules specify restrictions" —
    {!open_policy} builds such a policy. Our reading of a negative rule
    [\[A, J\] -> S] (DESIGN.md): [S] must not receive any view revealing
    {e all} of [A] under a join path {e containing} [J] (denials are
    upward-closed in information: with [J ⊆ path] and [A ⊆ visible],
    more information is still denied; the empty [J] denies the
    association [A] in every context). Everything not denied is
    allowed. *)

open Relalg

(** Hash-consed canonical keys for join paths, attribute sets and whole
    rules. Structural values (balanced-tree sets) are mapped to small
    int ids via their canonical forms, so the chase closure and
    {!can_view} replace [compare] walks with hash lookups and int
    tests. Ids are process-global: every policy shares one interner,
    and an id, once minted, is stable for the program's lifetime. *)
module Index : sig
  (** [path_id p] interns the canonical form of [p]
      ({!Joinpath.Cond.pairs} of its sorted conditions). Equal paths
      get equal ids. *)
  val path_id : Joinpath.t -> int

  (** Like {!path_id} but never allocates a fresh id: [None] means no
      rule anywhere has used this path, so no closed policy can admit
      it. *)
  val find_path : Joinpath.t -> int option

  (** Interned sorted-element form of an attribute set. *)
  val attrs_id : Attribute.Set.t -> int

  (** Interned canonical ({!Joinpath.Cond.pairs}) form of a single join
      condition — the chase keys its path-union memo on it. *)
  val cond_id : Joinpath.Cond.t -> int

  (** Interned [(server, attrs_id, path_id)] triple — the identity of a
      rule. [rule_id a = rule_id b] iff [Authorization.equal a b]. *)
  val rule_id : Authorization.t -> int

  (** [rule_id] from already-interned parts, skipping the structural
      walks. *)
  val rule_id_of : Server.t -> attrs_id:int -> path_id:int -> int

  (** Interned [(attrs_id pi, path_id join, attrs_id sigma)] triple —
      the identity of a relation profile.
      [profile_id a = profile_id b] iff [Profile.equal a b]. The
      knowledge-saturation pass keys its fixpoint on it. *)
  val profile_id : Profile.t -> int

  (** [profile_id] from already-interned parts, skipping the structural
      walks. *)
  val profile_id_of : pi_id:int -> path_id:int -> sigma_id:int -> int
end

type t

(** A rule together with its interned identities, as stored in the
    per-(attribute, server) buckets. The chase reads a merge partner's
    ids straight out of the bucket instead of re-walking its sets. *)
type entry = private {
  rule : Authorization.t;
  rule_id : int;
  attrs_id : int;
  path_id : int;
}

val empty : t

(** [mem a t] — O(log n) over int ids, no structural comparison. *)
val mem : Authorization.t -> t -> bool

(** [mem_id id t] — membership by {!Index.rule_id}. *)
val mem_id : int -> t -> bool

val add : Authorization.t -> t -> t

(** [remove a t] — [t] without rule [a] (no-op when absent). *)
val remove : Authorization.t -> t -> t
val of_list : Authorization.t list -> t
val union : t -> t -> t

(** An open policy from its negative rules. *)
val open_policy : Authorization.t list -> t

val is_open : t -> bool

(** Negative rules of an open policy ([[]] for closed ones). *)
val denials : t -> Authorization.t list

val add_denial : Authorization.t -> t -> t
val remove_denial : Authorization.t -> t -> t

(** All authorizations, sorted. *)
val authorizations : t -> Authorization.t list

(** [view t s] is the list of rules granted to [s] — the [view(S)] used
    by the paper's [CanView] function (Figure 6). *)
val view : t -> Server.t -> Authorization.t list

(** [covering_entries t s side] — the rules of [view t s] whose
    attribute set contains every attribute of [side], each with its
    interned ids, found through the per-attribute bucket of the first
    element of [side]. This is the chase's merge-partner lookup: only
    rules that can possibly cover one side of a join condition are
    inspected.

    @raise Invalid_argument on an empty [side]. *)
val covering_entries : t -> Server.t -> Attribute.t list -> entry list

val cardinality : t -> int
val servers : t -> Server.Set.t

(** [can_view t profile s] decides Definition 3.3: true iff some
    authorization [\[A, J\] -> s] satisfies both

    + [profile.pi ∪ profile.sigma ⊆ A], and
    + [profile.join = J] (equality — a containing path would leak the
      association with relations the server may not see, Section 3.2).

    This is the paper's [CanView] (Figure 6). *)
val can_view : t -> Profile.t -> Server.t -> bool

(** [admits t s ~path_id visible] is {!can_view} for a {e closed}
    policy when the caller already holds the interned path id and the
    visible set of a selection-free profile — the chase's filter, with
    no structural walks. Open-mode admission depends on the concrete
    join path; callers holding an open policy must use {!can_view}. *)
val admits : t -> Server.t -> path_id:int -> Attribute.Set.t -> bool

(** The authorization justifying the release, if any — used by audit
    trails to cite the admitting rule. *)
val authorizing_rule : t -> Profile.t -> Server.t -> Authorization.t option

val equal : t -> t -> bool

(** Figure-3 style listing, numbered from 1. *)
val pp : t Fmt.t
