(** Cumulative-knowledge inference analysis.

    Definition 3.3 — and every check built on it so far (Safety.check,
    the script verifier, the runtime audit) — judges each transmitted
    relation {e in isolation}. But a server keeps everything it
    receives, and nothing stops it from joining two individually
    authorized deliveries into an association the policy never granted.
    This module closes that gap with an abstract interpretation whose
    domain is a per-server {e knowledge base}: the set of relation
    profiles the server can materialise, each annotated with the
    messages it came from.

    The analysis has three stages:

    + {e accumulation} — a transfer function per flow a plan can
      induce (operand shipment, semi-join reduction, coordinator and
      proxy relay in third-party mode) folds deliveries into the
      receiver's knowledge base ({!of_flow_batches}, or {!receive} for
      a replayed message log);
    + {e saturation} — {!saturate} closes every knowledge base under
      the Figure-4 join rule over the schema join graph, up to a
      configurable budget. Only joins matter here: projecting or
      selecting a known profile shrinks [pi] or grows [sigma] within
      [visible], so any authorization admitting the original admits the
      derivative — joins are the only operator that manufactures a new
      join path;
    + {e policy re-check} — {!leaks} flags every derived profile that
      (a) depends on at least one received message, (b) required at
      least one saturation join, and (c) no authorization admits.
      Directly-received unauthorized profiles are CISQP001's business
      (and the audit's); purely local derivations only recombine data
      the server stores.

    A consequence worth stating: if the policy is closed under the
    chase (Section 3.2), saturation of authorized deliveries can never
    leak — every leak this pass reports is a concrete, this-execution
    witness that the policy is {e not} chase-closed. *)

open Relalg
open Authz

(** Provenance of a delivery: the message-log position, the sender, and
    a short free-form note (payload description or temporary name). *)
type source = { seq : int; sender : Server.t; note : string }

(** One element of a knowledge base. [sources = []] means the profile
    is local (a stored relation, or derived from stored relations
    only); otherwise the contributing messages, ascending by [seq].
    [via] lists the join conditions applied by saturation, sorted;
    [via = []] means the profile was received or stored as-is. *)
type item = {
  profile : Profile.t;
  sources : source list;
  via : Relalg.Joinpath.Cond.t list;
}

(** Per-server knowledge bases. *)
type t

val empty : t

(** Every server of the catalog, knowing exactly the base relations it
    stores a copy of. *)
val of_catalog : Catalog.t -> t

(** [add server item t] puts [item] into [server]'s knowledge base.
    If the base already holds [item.profile] with a witness no larger
    (fewer joins, then fewer messages), the existing item is kept. *)
val add : Server.t -> item -> t -> t

(** [receive ~receiver ~source profile t] folds one delivery in: {!add}
    of the item [{ profile; sources = \[source\]; via = \[\] }]. *)
val receive : receiver:Server.t -> source:source -> Profile.t -> t -> t

(** Accumulate the flows of several plans executed by the same
    federation (one batch per plan, in {!Planner.Safety.flows} order —
    the order the engine emits messages in). [seq] numbers flows
    globally across batches. *)
val of_flow_batches : Catalog.t -> Planner.Safety.flow list list -> t

val servers : t -> Server.t list
val items : t -> Server.t -> item list
val profiles : t -> Server.t -> Profile.t list
val mem : t -> Server.t -> Profile.t -> bool

(** Default saturation budget: maximum number of distinct profiles per
    knowledge base (1024). *)
val default_budget : int

type outcome = {
  knowledge : t;
  exhausted : Server.t list;
      (** servers whose saturation hit the budget; their knowledge is a
          sound but incomplete under-approximation *)
}

(** [saturate ~joins t] closes every knowledge base under
    {!Profile.try_join} over the given join conditions (the schema join
    graph), breadth-first so witnesses are minimal-step. The fixpoint
    is reached when no pair of known profiles joins into an unknown
    one, or the per-server [budget] is hit.

    This is the semi-naive indexed engine: profiles are hash-consed
    through {!Intern.profile_id_of} so membership and dedup are
    int-level, each fresh entry joins once against the full base
    (never old×old), join attempts and attribute-set inclusions are
    memoised process-wide, and a derived entry whose visible
    attributes are implied by a retained same-path entry is dropped
    before it spawns candidates ({e subsumption pruning}). Pruning
    preserves {!lint} verdicts but not the exact profile set: the
    saturated base is a subset of the unpruned closure in which every
    pruned profile has a same-path dominator (a [pi] and [sigma] at
    least as wide).

    It is the {!snapshot} of a fresh {!cursor} over [t]. *)
val saturate : ?budget:int -> joins:Joinpath.Cond.t list -> t -> outcome

(** {2 Saturated state with provenance} *)

(** A saturated-knowledge handle: the per-server bases of one
    saturation, with the provenance {!explain} reads a witness from. *)
type cursor

(** [cursor ~joins t] seeds a handle with the accumulated bases of [t]
    (typically {!of_catalog} and {!receive}) and saturates them. *)
val cursor : ?budget:int -> joins:Joinpath.Cond.t list -> t -> cursor

(** The saturated state, materialised. Exhausted servers are deduped
    and sorted. *)
val snapshot : cursor -> outcome

(** [explain c catalog server profile] — the join tree behind
    [profile] in [server]'s saturated knowledge base, reconstructed
    from provenance recorded during saturation (no re-saturation):
    leaves are relations stored at the server or single logged
    deliveries, internal nodes the join steps that first derived each
    intermediate profile. This is the checkable counterexample
    attached to a CISQP030 verdict — validate it with
    {!Certificate.check_leak}. [None] when the profile is not in the
    base or was seeded pre-joined. *)
val explain :
  cursor -> Catalog.t -> Server.t -> Profile.t -> Certificate.tree option

type leak = { server : Server.t; item : item }

(** Derived-but-unauthorized profiles, in deterministic (server,
    profile) order. Only items with [sources <> []] and [via <> []]
    qualify — see the module preamble. A caller holding a chase
    handle passes its {!Chase.closure} as the policy. *)
val leaks : Policy.t -> t -> leak list

(** Saturate then re-check: one [CISQP030] per {!leaks} entry (naming
    the server, the contributing messages and the witness join
    conditions) and one [CISQP031] per budget-exhausted server. *)
val lint :
  ?budget:int ->
  joins:Joinpath.Cond.t list ->
  Policy.t ->
  t ->
  Diagnostic.t list

val pp_source : source Fmt.t
val pp_item : item Fmt.t

(** One block per server: its name, then one line per item. *)
val pp : t Fmt.t
