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

type t

val empty : t

(** [mem a t] — O(log n) over int ids ([a.id]), no structural
    comparison. *)
val mem : Authorization.t -> t -> bool

(** [mem_id id t] — membership by {!Authorization.t}'s [id]. *)
val mem_id : int -> t -> bool

(** [add a t] — [t] with rule [a] (no-op when present). Moves the
    {!epoch} in O(1). *)
val add : Authorization.t -> t -> t

(** [remove a t] — [t] without rule [a] (no-op when absent). Moves the
    {!epoch} in O(1). *)
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

(** The fingerprint of the policy's grants, 32 hex digits: the sum,
    mod 2{^128}, of the MD5 digests of its rules' canonical texts. Kept
    in the policy and moved in O(1) by {!add} and {!remove}; each
    rule's digest is taken once per process. Deterministic across
    processes, independent of insertion order, and moved by any change
    to the rules. Denials and the open mode do not enter it: only a
    closed policy's certificates are pinned to an epoch. *)
val epoch : t -> string

(** All authorizations, sorted. *)
val authorizations : t -> Authorization.t list

(** [view t s] is the list of rules granted to [s] — the [view(S)] used
    by the paper's [CanView] function (Figure 6). *)
val view : t -> Server.t -> Authorization.t list

(** [covering_entries t s side] — the rules of [view t s] whose
    attribute set contains every attribute of [side], found through the
    per-attribute bucket of the first element of [side]. This is the
    chase's merge-partner lookup: only rules that can possibly cover
    one side of a join condition are inspected.

    @raise Invalid_argument on an empty [side]. *)
val covering_entries : t -> Server.t -> Attribute.t list -> Authorization.t list

(** The number of rules, in O(1). *)
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

(** [authorizing_rule t ~path_id s visible] — the rule granted to [s]
    whose join path has the interned id [path_id]
    ({!Intern.path_id}) and whose attributes contain [visible] (a
    profile's {!Profile.visible} set), if any: the rule that justifies
    the release under Definition 3.3, which the runtime audit cites and
    the certificate emitter takes as a flow's witness. One index
    lookup, no structural walk of the path. [None] under an open-mode
    policy, which has no positive rule to cite. *)
val authorizing_rule :
  t -> path_id:int -> Server.t -> Attribute.Set.t -> Authorization.t option

val equal : t -> t -> bool

(** Figure-3 style listing, numbered from 1. *)
val pp : t Fmt.t
