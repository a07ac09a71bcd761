(** Closure of a policy under derivation — the "chase" procedure of
    Section 3.2.

    The paper observes that a server holding authorizations for all the
    base relations underlying a view can compute the view by itself, so
    the authorization for the view is {e implied}, and assumes the
    policy closed "by means of a chase procedure \[2\] that derives all
    the authorizations implied directly or indirectly by those
    explicitly specified" — without giving the procedure. Our concrete
    reading (documented in DESIGN.md):

    a server [S] with rules [\[A1, J1\] -> S] and [\[A2, J2\] -> S] can
    locally join its two authorized views on a join condition [j]
    (drawn from the system's join graph) whenever both sides of [j] are
    visible to it ([j_l ⊆ A1] and [j_r ⊆ A2]); the result is the view
    [\[A1 ∪ A2, J1 ∪ J2 ∪ {j}\] -> S]. We iterate this inference to a
    fixpoint.

    Projection closure needs no new rules: condition 1 of
    Definition 3.3 already accepts any subset of an authorized
    attribute set. *)

open Relalg

(** [close ~joins policy] is the least fixpoint of the merge rule above
    over the join conditions [joins] (the join graph — the lines of
    Figure 1). The result contains [policy].

    The engine is {e semi-naive}: each round merges only
    (previous-round frontier × policy) pairs found through the
    server's per-attribute buckets ({!Policy.bucket}), computes each
    candidate on the rules' bits ({!Intern.Bits}) without allocating,
    dedupes within the round on bits, and admits against the
    round-start policy ({!Policy.part_admits}, or [can_view] under an
    open-mode policy) — producing the {e same rule set} as an all-pairs
    rescan per round in far less work (see DESIGN.md §5d and the
    differential suite). Only a fresh rule builds its tree sets.

    [max_rules] (default [100_000]) bounds the size of the closure; the
    bound can only be hit on pathological inputs (the closure is finite
    — at most one rule per (attribute set, join path) pair — but can be
    exponential in the join graph). The bound counts {e distinct}
    rules: duplicate or symmetric derivations within a round never
    count against it.

    @raise Invalid_argument when the bound is exceeded. *)
val close : ?max_rules:int -> joins:Joinpath.Cond.t list -> Policy.t -> Policy.t

(** One recorded application of the merge rule: [derived] is the
    [\[left.attrs ∪ right.attrs, left.path ∪ right.path ∪ {via}\]]
    rule, all three on the same server. *)
type derivation = {
  derived : Authorization.t;
  left : Authorization.t;
  right : Authorization.t;
  via : Joinpath.Cond.t;
}

(** [close_trace ~joins policy] — [close], plus the merge steps that
    produced each derived rule, grouped by server (in server order),
    each group in derivation order. Every premise of a step is a base
    rule or the [derived] of an {e earlier} step, so the trace replays
    in one linear pass against the base policy — the evidence consumed
    by {!Analysis.Certificate}. *)
val close_trace :
  ?max_rules:int ->
  joins:Joinpath.Cond.t list ->
  Policy.t ->
  Policy.t * derivation list

(** Why entry [i] of a {!table} holds: explicit in the base policy, or
    one merge step of two strictly earlier entries on [via]. *)
type justification =
  | Granted
  | Composed of { left : int; right : int; via : Joinpath.Cond.t }

(** A derivation table numbers a closure's evidence: the base rules in
    {!Policy.authorizations} order, then the trace's conclusions in
    order (grouped by server, see {!close_trace}). The first occurrence
    of a rule id wins ({!position} looks rules up by id); a step citing
    a premise outside it is dropped. *)
type table

val table_of_trace : Policy.t -> derivation list -> table
val position : table -> Authorization.t -> int option
val entry : table -> int -> Authorization.t * justification
val entries : table -> (Authorization.t * justification) list

(** An incrementally-maintained closed policy: the closure is computed
    lazily, at most once per policy state, and shared by every consumer
    holding the handle ([Planner.Safety], [Planner.Safe_planner],
    [Analysis.Knowledge], [Distsim.Recover], [cisqp --chase]), instead
    of each of them re-closing the same policy per check. *)
type closed

(** [closed_policy ~joins policy] — a handle over [policy]. Nothing is
    computed until the closure is first consulted. *)
val closed_policy :
  ?max_rules:int -> joins:Joinpath.Cond.t list -> Policy.t -> closed

(** The explicit (pre-closure) policy under the handle. *)
val policy : closed -> Policy.t

(** The join graph the handle closes under. *)
val joins : closed -> Joinpath.Cond.t list

(** The closed policy; computed on first call, cached afterwards. *)
val closure : closed -> Policy.t

(** {!table_of_trace} over the base and the trace behind {!closure}
    (after {!add} on a cached handle, the previous trace extended by the
    incremental steps; after {!revoke}, the revoked server's group
    re-derived in its slot). The handle owns it: built on first call, once
    per policy state; {!closed_policy}, {!add}, {!revoke} and
    {!closure} never build it. *)
val table : closed -> table

(** [can_view t profile s] — Definition 3.3 against the cached
    closure. *)
val can_view : closed -> Profile.t -> Server.t -> bool

(** [add a t] — handle over [Policy.add a (policy t)]. If the closure
    was already computed it is {e extended} semi-naively with frontier
    [{a}] rather than recomputed: the resulting rule set can differ
    from a from-scratch closure (already-implied views stay implicit)
    but admits exactly the same releases. *)
val add : Authorization.t -> closed -> closed

(** [revoke a t] — handle over [Policy.remove a (policy t)]; [t] itself
    when [a] is not in the base (a derived rule, say). Only derived
    rules of [a]'s server can lose their support, so if the closure was
    computed, that server's part of it is replaced by the shrunk base's
    part ({!Policy.with_part}) and re-closed (lazily): the cost follows
    that server's closure, every other server keeps its rules and
    steps, the server's rules and steps are exactly those of
    {!close_trace} of the shrunk base, and on a handle closed from
    scratch so is the whole result. Otherwise the closure is recomputed
    lazily from the shrunk base. *)
val revoke : Authorization.t -> closed -> closed

(** [derives ~joins policy profile s] — convenience: does the closure
    admit the release of [profile] to [s]? One-shot; callers with more
    than one query should keep a {!closed} handle. *)
val derives :
  joins:Joinpath.Cond.t list -> Policy.t -> Profile.t -> Server.t -> bool
