(** The safe query planning algorithm of Figure 6.

    Two traversals of the query tree plan:

    + {b Find_candidates} (post-order) computes each node's profile
      (Figure 4) and the list of candidate executors, by checking with
      [CanView] which servers can act as semi-join master, regular-join
      master, or slave for each join (the four execution modes of
      Figure 5). Candidates carry the child they come from and a
      counter of the joins they would execute; slaves are searched in
      decreasing counter order and only the first is kept.
    + {b Assign_ex} (pre-order) picks at the root the candidate with
      the highest join count, then pushes the choice down: the chosen
      master to the child it came from, the recorded slave (or NULL) to
      the other child.

    Two cost-minimisation principles (Section 5): favour semi-joins
    over regular joins, and prefer servers involved in more joins.

    Deviations from the paper's pseudo-code, documented in DESIGN.md:
    - each candidate records the execution mode (semi/regular) it
      qualified under, so that [Assign_ex] attaches the slave only to
      semi-join candidates;
    - when the chosen master equals the recorded slave the join is
      local and executes as a regular join ([slave := NULL], upholding
      [master ≠ slave] of Definition 4.1);
    - duplicate [(server, fromchild, mode)] candidates keep only the
      highest counter. *)

open Relalg
open Authz

type side = Safety.side = Left | Right

type mode =
  | Local
      (** the candidate can execute both operands: the join is
          co-located and entails no view at all (a correction to the
          paper's pseudo-code — see DESIGN.md) *)
  | Regular  (** the candidate receives the other operand in full *)
  | Semi  (** the candidate drives a semi-join with the recorded slave *)
  | Coordinated of { coordinator : Server.t; slave : Server.t }
      (** footnote 3's coordinator variant: [coordinator] matches the
          join columns of both operands, [slave] (the other operand's
          executor) ships its reduced operand to the master *)

type candidate = {
  server : Server.t;
  fromchild : side option;  (** [None] for leaf candidates *)
  count : int;  (** joins this server would execute in the subtree *)
  mode : mode;  (** how it would execute this node's join *)
}

val pp_candidate : candidate Fmt.t

(** Per-node outcome of the first traversal, for Figure-7 style
    traces. *)
type node_info = {
  node : int;
  profile : Profile.t;
  candidates : candidate list;  (** decreasing count *)
  leftslave : candidate option;
      (** candidate of the left child usable as slave when the master
          comes from the right child *)
  rightslave : candidate option;
}

type trace = {
  visit_order : node_info list;  (** post-order, as in Figure 7 (left) *)
  assign_order : (int * Assignment.executor) list;
      (** pre-order, as in Figure 7 (right) *)
}

type failure = {
  failed_at : int;  (** node for which no safe assignment exists *)
  info : node_info list;  (** candidates found before the failure *)
}

type result = {
  assignment : Assignment.t;
  trace : trace;
}

(** Planner restrictions, for baselines and ablations:
    [allow_semijoins = false] yields the regular-join-only baseline;
    [prefer_high_count = false] disables principle ii (candidates no
    longer ordered by join counter). Both default to [true]. *)
type config = {
  allow_semijoins : bool;
  prefer_high_count : bool;
}

val default_config : config

(** [plan catalog policy p] runs the two traversals. [Ok] carries the
    safe assignment (Definition 4.2 guaranteed by construction — and
    re-checked by {!Safety.check} in the test-suite); [Error] reports
    the node at which [Find_candidates] exited.

    [helpers] (default none) enables the third-party extension of
    footnote 3: when a join has no operand candidate, a helper server
    authorized to view both operands in full is injected as a proxy
    executor (candidate with [fromchild = None]); such assignments must
    be checked with [Safety.check ~third_party:true].

    [excluded] (default none) removes servers from consideration
    entirely — leaf homes, masters, slaves, coordinators and helpers
    alike. This is the failover hook: after a permanent crash,
    {!Distsim.Recover} replans with the dead server excluded, relying
    on catalog replication for the leaves it stored. A leaf with no
    surviving copy fails planning at that leaf's node.

    [closed] supplies a {!Chase.closed} handle; every [CanView] of the
    traversal then consults its cached closure (superseding [policy])
    so replans never re-close the same policy. *)
val plan :
  ?config:config ->
  ?helpers:Server.t list ->
  ?excluded:Server.t list ->
  ?closed:Chase.closed ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  (result, failure) Stdlib.result

(** [feasible catalog policy p] — Definition 4.3. *)
val feasible :
  ?config:config ->
  ?helpers:Server.t list ->
  ?excluded:Server.t list ->
  ?closed:Chase.closed ->
  Catalog.t ->
  Policy.t ->
  Plan.t ->
  bool

(** Figure-7 left table: node, candidates, slave. *)
val pp_trace : trace Fmt.t

val pp_failure : failure Fmt.t
