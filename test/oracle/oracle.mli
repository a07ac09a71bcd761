(** Reference oracles: slow, direct twins of the production engines,
    which the differential tests, [bin/soak.exe] and [bench/main.exe]
    compare the engines against. Nothing under [lib/] links this
    library. {!close_chase} and {!saturate} share no interner, memo or
    index with the engine they check: a defect in that machinery would
    otherwise show up on both sides of the comparison and cancel out. *)

(** The tree-set relation and its tuple-at-a-time operators: the twin
    of the positional {!Relalg.Relation}. *)
module Tree_relation = Tree_relation

(** The tree-walking execution engine: the twin of the compiled
    {!Distsim.Engine}. *)
module Interpreter = Interpreter

open Relalg
open Authz

(** The closure {!Authz.Chase.close} computes, recomputed from scratch
    every round: a structural merge of every unordered pair of
    round-start rules (a rule with itself included) under every join
    condition, keeping the merged rules the round-start policy does not
    admit. [max_rules] (default [100_000], as for [close]) bounds the
    distinct rules at the start of every round.

    @raise Invalid_argument when the bound is exceeded, or when a
    round's fresh rules add nothing to the policy (a rule in a closed
    policy admits itself, so a correct round never does). *)
val close_chase :
  ?max_rules:int -> joins:Joinpath.Cond.t list -> Policy.t -> Policy.t

(** The saturation {!Analysis.Knowledge.saturate} computes, without
    interning, memos or subsumption pruning: per server, a profile map
    seeded from {!Analysis.Knowledge.items}, a breadth-first queue, one
    {!Authz.Profile.try_join} per sorted candidate, and sorted-list
    witness merges, up to [budget] profiles (default
    {!Analysis.Knowledge.default_budget}). Its exploration order fixes
    the witnesses and exhausted servers that [bin/soak.exe] and the
    [inference] bench record. The engine's pruned result is a
    {!subset} of it and {!covered_by} it, with the same leak
    verdicts. *)
val saturate :
  ?budget:int ->
  joins:Joinpath.Cond.t list ->
  Analysis.Knowledge.t ->
  Analysis.Knowledge.outcome

(** Every profile [a] holds at a server, [b] holds there too (witnesses
    ignored). *)
val subset : Analysis.Knowledge.t -> Analysis.Knowledge.t -> bool

val equal : Analysis.Knowledge.t -> Analysis.Knowledge.t -> bool

(** Every profile [a] holds at a server has a dominator in [b] there:
    the same join path, with [pi] and [sigma] included in its own. *)
val covered_by : Analysis.Knowledge.t -> Analysis.Knowledge.t -> bool

(** The runtime twin of the inference pass: the knowledge bases an
    execution built, from what its message log actually delivered
    (with the engine's runtime profiles) rather than from the planned
    flows. *)
val runtime_knowledge : Catalog.t -> Distsim.Network.t -> Analysis.Knowledge.t

(** {!Analysis.Knowledge.lint} of {!runtime_knowledge}: the same
    CISQP030/031 verdicts as a lint of the static accumulation. *)
val runtime_inference :
  ?budget:int ->
  joins:Joinpath.Cond.t list ->
  Catalog.t ->
  Policy.t ->
  Distsim.Network.t ->
  Analysis.Diagnostic.t list
