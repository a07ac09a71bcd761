(** Exhaustive enumeration of safe executor assignments.

    The baseline the greedy algorithm of Figure 6 is validated against:
    it enumerates {e every} assignment satisfying Definition 4.1 (each
    join executed by one of its operands' executors, as a regular join
    or a semi-join in either direction), keeps those that are safe
    (Definition 4.2, via {!Safety}), and can report the cheapest one
    under a {!Cost.model}.

    Exponential in the number of joins — intended for plans with a
    handful of joins (tests, and the greedy-vs-exhaustive bench). *)

open Relalg
open Authz

(** All safe assignments. [max_results] (default [100_000]) caps the
    enumeration as a safety valve; the count is exact when below it.
    A caller holding a chase handle passes its {!Chase.closure} as
    the policy of every entry point below. *)
val safe_assignments :
  ?max_results:int ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  Assignment.t list

(** [feasible] — is there at least one safe assignment? (Lazy: stops at
    the first.) *)
val feasible : Catalog.t -> Policy.t -> Plan.t -> bool

(** Cheapest safe assignment under the model, with its cost. *)
val min_cost :
  Cost.model ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  (Assignment.t * float) option

(** Number of safe assignments (capped by [max_results]). *)
val count_safe :
  ?max_results:int -> Catalog.t -> Policy.t -> Plan.t -> int
