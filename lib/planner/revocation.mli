(** Revocation analysis — the administrative converse of
    {!module:Advisor}.

    Before revoking an authorization, an administrator wants to know
    what it currently enables (the rules an assignment's safety actually
    cites are those of its {!Analysis.Certificate.plan_cert}):

    - {!load_bearing}: the rules whose individual removal makes a plan
      infeasible (stronger than membership in a support set: another
      rule might cover the same flow);
    - {!impact}: across a workload of plans, how many become
      infeasible if a given rule is revoked. *)

open Relalg
open Authz

(** Rules [r] of the policy such that the plan is feasible under the
    policy but infeasible under [policy - r]. Plans that are already
    infeasible have no load-bearing rules.

    [joins] makes the analysis chase-aware: feasibility is judged
    against closed policies, and each candidate removal is a
    {!Chase.revoke} from one computed closure — revoking a rule also takes down every derivation
    it supported, so a rule can be load-bearing through a derived rule
    that cites it. *)
val load_bearing :
  ?joins:Joinpath.Cond.t list ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  Authorization.t list

type impact = {
  rule : Authorization.t;
  total : int;  (** plans feasible under the full policy *)
  broken : int;  (** of those, plans infeasible after revoking [rule] *)
}

(** Impact of revoking each rule of the policy on a workload of
    plans, sorted by decreasing [broken]. [joins] closes policies as in
    {!load_bearing}. *)
val impact :
  ?joins:Joinpath.Cond.t list ->
  Catalog.t ->
  Policy.t ->
  Plan.t list ->
  impact list

val pp_impact : impact Fmt.t
