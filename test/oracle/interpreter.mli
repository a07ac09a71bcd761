(** The tree-walking twin of {!Distsim.Engine}: the interpreter the
    engine was before plans were compiled. Each run walks the plan and
    re-derives, at every node, the Figure-4 profile, the output header
    (through the executor's unplanned operators) and every message
    note. The differential suite and [bin/soak.exe] compare it with
    {!Distsim.Engine.execute}: results, message logs, node rows,
    steps, fault schedules and typed errors must be identical, except
    that the compiled engine rejects a structural error or a missing
    instance before any step runs, where this twin reports it at the
    node that meets it. *)

open Relalg

(** {!Distsim.Engine.execute}'s contract, argument for argument. *)
val execute :
  ?third_party:bool ->
  ?executor:(module Exec.S) ->
  ?bloom:int ->
  ?fault:Distsim.Fault.t ->
  ?network:Distsim.Network.t ->
  ?deadline:int ->
  ?observe:(int -> Relation.t -> unit) ->
  Catalog.t ->
  instances:(string -> Relation.t option) ->
  Plan.t ->
  Planner.Assignment.t ->
  (Distsim.Engine.outcome, Distsim.Engine.error) result

(** The agreement the differential asks of two runs: the same result
    (header and rows, both in order) at the same location, the same
    [node_rows] and [steps], and message logs equal field by field —
    seq, sender, receiver, purpose, profile, path id, note, attempt,
    delivery, payload, header, rows and wire bytes. *)
val equal_outcome : Distsim.Engine.outcome -> Distsim.Engine.outcome -> bool

(** {!equal_outcome} on successes; on failures, the same error as
    {!Distsim.Engine.pp_error} renders it. *)
val equal_result :
  (Distsim.Engine.outcome, Distsim.Engine.error) result ->
  (Distsim.Engine.outcome, Distsim.Engine.error) result ->
  bool
