(** Proof-carrying safety: a certificate language and an independent
    linear-time checker for the safety verdicts of the optimized
    engines.

    The engines ({!Authz.Chase.close}, {!Planner.Safe_planner},
    {!Knowledge.saturate}, {!Distsim.Recover}) compute fixpoints and
    search; their verdicts here carry {e evidence} that a checker can
    validate in one linear pass with no fixpoint computation and no
    calls back into the engines:

    - a {b derivation trace} replays every chase-derived rule as one
      Figure-4 merge step over {e earlier} rules, bottoming out in
      rules granted by the base policy;
    - {b flow evidence} names, per cross-server flow of a plan, the
      witnessing rule together with the Definition 3.3 facts the
      checker re-verifies directly (π∪σ ⊆ A and J = J');
    - a {b join tree} is a checkable counterexample for a CISQP030
      leak verdict: it derives the leaking profile from stored
      relations and logged deliveries by join steps alone.

    Soundness: {!check_plan} accepting implies every flow of the plan
    is covered by an authorization granted by, or chase-derivable
    from, the base policy — because each witness either is in the base
    policy or sits at the end of a replayed derivation chain whose
    every step is a valid merge over the system's join graph.
    See DESIGN.md §5f.

    Certificates are pinned to a policy {e epoch} (a fingerprint of
    the base policy's rules); {!check_plan} with [~revalidate:true] skips
    the pin and replays the evidence against the policy it is given —
    the re-validation entry point for cached plans under policy
    change. *)

open Relalg
open Authz

(** Fingerprint of a policy's explicit rules: {!Policy.epoch}, the sum
    mod 2{^128} of per-rule MD5 digests over canonical rule texts,
    which the policy keeps up to date on every grant and revoke, so
    reading it costs no rendering. Deterministic across runs and
    independent of insertion order; any change to the rules moves it.
    Open policies are never pinned: emission and checking refuse
    them before reading an epoch. *)
val epoch : Policy.t -> string

(** {1 The certificate language} *)

(** Why a rule of the certificate holds. [Composed] premises are
    indices of {e strictly earlier} rules in the certificate's rule
    list, so checking is a single left-to-right pass. *)
type justification = Chase.justification =
  | Granted  (** explicit in the base policy *)
  | Composed of { left : int; right : int; via : Joinpath.Cond.t }
      (** one Figure-4 merge step of two earlier rules on [via] *)

type rule = { auth : Authorization.t; just : justification }

(** One cross-server flow with its witnessing rule (an index into the
    certificate's rule list). The checker re-verifies Definition 3.3
    against the witness: π∪σ ⊆ witness.attrs and profile.join =
    witness.path. *)
type flow_evidence = {
  at : int;
  sender : Server.t;
  receiver : Server.t;
  profile : Profile.t;
  witness : int;
}

(** Certificate for one plan under one assignment. *)
type plan_cert = {
  epoch : string;
  third_party : bool;
  order : string list option;
      (** the FROM order of the plan it proves, read off the plan's
          leaves left to right ({!Relalg.Plan.relations}); every
          emitted certificate has one. [None] (a certificate written
          before certificates named their order) means the SQL order:
          the plan to check it against is [Query.to_plan] of the SQL
          itself, and [Some order] the plan of
          [Planner.Optimizer.reorder catalog query order]. *)
  assignment : Planner.Assignment.t;
  rules : rule list;
  flows : flow_evidence list;
}

(** Interned ids (each rule's {!Authorization.t} [id]) of every rule the
    certificate's witnesses transitively depend on, sorted. Emission
    prunes the rule list to exactly this dependency set, and every
    [Composed] chain bottoms out in [Granted] rules that are also
    listed — so a base-policy revocation can invalidate the plan's
    proof only if the revoked rule's id is a member. *)
val rule_ids : plan_cert -> int list

(** A join tree deriving a profile at one server — the counterexample
    attached to a CISQP030 leak verdict. *)
type tree =
  | Stored of { relation : string }  (** a base relation stored there *)
  | Received of { seq : int; sender : Server.t; profile : Profile.t }
      (** delivery [#seq] of the message log *)
  | Joined of { via : Joinpath.Cond.t; left : tree; right : tree }

type leak_cert = {
  epoch : string;
  server : Server.t;
  profile : Profile.t;
  tree : tree;
}

(** Ground truth for [Received] leaves: the flows a workload actually
    delivered, numbered exactly as {!Knowledge.of_flow_batches}
    numbers its sources. *)
type delivery = {
  d_seq : int;
  d_sender : Server.t;
  d_receiver : Server.t;
  d_profile : Profile.t;
}

val deliveries_of_batches : Planner.Safety.flow list list -> delivery list

(** {1 Failures} *)

type failure =
  | Stale_epoch of { expected : string; found : string }
  | Open_policy
  | Premise_out_of_range of { rule : int; premise : int }
  | Not_granted of { rule : int }
  | Unknown_condition of { rule : int }
  | Composition_server of { rule : int }
  | Composition_sides of { rule : int }
  | Composition_union of { rule : int }
  | Plan_structure of string
  | Order_mismatch of { plan : string list; certificate : string list }
      (** the certificate names a join order other than its plan's: it
          proves a different plan *)
  | Flow_unevidenced of { node : int }
  | Flow_fabricated of { node : int }
  | Witness_out_of_range of { node : int; witness : int }
  | Witness_server of { node : int }
  | Witness_attrs of { node : int }
  | Witness_path of { node : int }
  | Tree_leaf_not_stored of { relation : string }
  | Tree_delivery_unknown of { seq : int }
  | Tree_join_inapplicable
  | Tree_root_mismatch
  | Tree_trivial
  | Not_a_leak

val pp_failure : failure Fmt.t

(** Each failure as a CISQP050 diagnostic (flow and witness failures
    at their plan node, the rest on the whole artifact). *)
val to_diagnostics : failure list -> Diagnostic.t list

(** {1 The checker}

    All checkers run in one linear pass over the certificate (plus the
    structural flow derivation of {!Planner.Safety.flows}, which is
    itself a single plan traversal) and never call the engines. An
    empty failure list means the certificate proves the verdict. *)

(** [check_rules ~joins policy rules] validates the derivation trace
    against the base [policy]: every [Granted] rule is explicit in the
    policy; every [Composed] rule is a correct Figure-4 merge of two
    earlier rules of the list on a condition of the join graph. *)
val check_rules :
  joins:Joinpath.Cond.t list -> Policy.t -> rule list -> failure list

(** [check_plan ~joins catalog policy plan cert] — the full plan
    check: epoch pin (unless [revalidate]), the certificate's join
    order against the plan's leaves (when it names one), derivation
    trace, exact
    (multiset) agreement of the evidenced flows with the flows the
    plan structurally performs under the certified assignment, and
    Definition 3.3 against each witness. [policy] is the {e base}
    (pre-closure) policy. *)
val check_plan :
  ?revalidate:bool ->
  joins:Joinpath.Cond.t list ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  plan_cert ->
  failure list

(** [check_leak ~joins catalog policy ~deliveries cert] validates the
    counterexample: every leaf is a relation stored at the server or a
    logged delivery to it, every join step applies a graph condition
    its operands support, the root equals the claimed profile, the
    tree involves at least one delivery and one join (otherwise
    nothing was {e inferred}), and the policy does not admit the
    profile (otherwise there is no leak). *)
val check_leak :
  ?revalidate:bool ->
  joins:Joinpath.Cond.t list ->
  Catalog.t ->
  Policy.t ->
  deliveries:delivery list ->
  leak_cert ->
  failure list

(** {1 Emission} *)

(** The full derivation universe of a closure, in checkable order: the
    entries of {!Chase.table_of_trace}, the numbering a handle's
    {!Chase.table} gives every certificate {!emit_plan} emits. *)
val rules_of_trace : Policy.t -> Chase.derivation list -> rule list

(** [emit_plan ~third_party ?closed catalog policy plan assignment]
    derives the plan's flows structurally and witnesses each with the
    authorizing rule of the (closed) policy. With [closed], witnesses
    may be chase-derived and arrive with their derivation chains,
    walked back from the witnesses through the handle's {!Chase.table}
    (time in proportion to the certificate, not the closure); the
    certificate's epoch pins the {e base} policy under the handle.
    Without it, [policy] itself (which must be closed-mode) is the
    base and every witness is [Granted]. Errors on open-mode policies,
    structurally invalid assignments, and uncovered flows (the latter
    meaning the plan was never safe). *)
val emit_plan :
  ?third_party:bool ->
  ?closed:Chase.closed ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  Planner.Assignment.t ->
  (plan_cert, string) result

(** [certify ?closed catalog policy plan assignment] is the one
    admission step of a freshly planned assignment, taken before any
    of its messages is sent. The proof mode is worked out from the
    assignment: third-party when {!Planner.Third_party.rescues_of}
    finds a rescued join. [policy] is the base policy (the one under
    [closed] when a handle is given).

    Under a closed [policy] the proof is {!emit_plan}, then
    {!check_plan} of the result against the base policy, over the
    handle's join graph when one is given, else with no joins; the
    checked certificate is returned. An open-mode [policy] is outside
    the certificate language: the proof is {!Planner.Safety.check}
    against its denials, and a safe assignment gives [Ok None].

    [Error] carries the structural error (an incomplete assignment
    included), the first unauthorized flow, the emission error or the
    first check failure, rendered. *)
val certify :
  ?closed:Chase.closed ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  Planner.Assignment.t ->
  (plan_cert option, string) result

(** {1 Rendering and serialization} *)

(** Human rendering of a join tree, e.g.
    [(Radiology join[cond] delivery #3 from S_H)]. *)
val pp_tree : tree Fmt.t

(** Compact JSON for {!plan_cert}; [plan_of_json] validates shape and
    rebuilds interned values (attributes, conditions, authorizations)
    through their checked constructors. *)
val plan_to_json : plan_cert -> string

val plan_of_json : string -> (plan_cert, string) result
