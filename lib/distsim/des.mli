(** Query makespan over an executed plan, analytic and under resource
    contention.

    The paper motivates executor placement by performance ("the
    minimization of data exchanges and the execution of steps of the
    queries in locations where it can be less costly", Section 1).
    This module turns a concrete execution — the plan, the assignment
    and the engine's measurements — into a task graph and schedules
    it, under a network model with per-link latency and bandwidth and a
    per-tuple local-processing cost.

    {!tasks_of_execution} is the one decoder of an execution's message
    log: one compute task per plan node (a leaf scans its base
    relation), plus the transfer and remote-compute tasks of its join
    protocol (regular, semi-join, coordinator, proxy — mirroring
    {!Engine}). Task durations come from the {e measured} execution
    (tuple counts and message sizes), priced by a {!model}.

    The same graph is scheduled two ways:

    - {!makespan} gives every task a resource of its own, so
      independent subtrees overlap fully and each node finishes at the
      end of its critical path — the analytic view of one query on an
      idle federation. A semi-join chains the five steps of Figure 5
      and so carries {e two} latencies on its critical path, against
      one for the regular join: semi-joins save bytes but pay an extra
      round trip, so high-latency/high-bandwidth networks favour
      regular joins and slow links favour semi-joins (experiment
      EXP-H).
    - {!simulate} runs non-preemptive list scheduling over
      single-capacity resources (one CPU per server, one FIFO channel
      per directed link), so concurrent queries contend realistically:
      a shared master serialises their joins, a shared link serialises
      their transfers (experiment EXP-I). On one execution's graph it
      never finishes before {!makespan} does, and it matches
      {!makespan} when no two tasks share a resource.

    The scheduler is deterministic: among runnable tasks it starts the
    one with the earliest feasible start time (ties broken by ready
    time, then id), matching FIFO service at every resource. *)

open Relalg

(** {1 Cost model} *)

type link = {
  latency : float;  (** seconds per message *)
  bandwidth : float;  (** bytes per second *)
}

type model = {
  link : Server.t -> Server.t -> link;
  per_tuple : float;  (** seconds of local work per tuple touched *)
}

(** Same link everywhere. Defaults: [latency = 1 ms],
    [bandwidth = 10 MB/s], [per_tuple = 1 us]. *)
val uniform : ?latency:float -> ?bandwidth:float -> ?per_tuple:float -> unit -> model

(** Seconds one message spends on its link: latency plus
    {!Network.wire_bytes} over bandwidth. *)
val wire : model -> Network.message -> float

(** {1 The analytic schedule} *)

type schedule = {
  finish : (int * float) list;  (** completion time per node id *)
  makespan : float;  (** completion of the root *)
}

(** [makespan model plan assignment outcome] schedules the graph
    {!tasks_of_execution} builds from the same arguments, with every
    task on a resource of its own, and reads each node's completion off
    the task that finishes it.
    @raise Invalid_argument as {!tasks_of_execution}. *)
val makespan :
  ?backoff:(int -> float) ->
  model ->
  Plan.t ->
  Planner.Assignment.t ->
  Engine.outcome ->
  schedule

val pp_schedule : schedule Fmt.t

(** {1 Task graphs and the contended scheduler} *)

type task = {
  id : string;  (** unique within one {!simulate} call *)
  resource : string;  (** ["cpu:SERVER"] or ["link:SRC->DST"] *)
  duration : float;  (** seconds *)
  deps : string list;  (** ids that must finish first *)
  release : float;  (** earliest start (query arrival time) *)
}

type scheduled = {
  task : task;
  start : float;
  finish : float;
}

type run = {
  schedule : scheduled list;  (** by increasing start time *)
  makespan : float;  (** latest finish, 0 for an empty task list *)
  utilization : (string * float) list;
      (** per resource: busy time / makespan (sorted by name) *)
}

(** What makes a task list not a schedulable DAG. *)
type graph_error =
  | Duplicate_task of string
  | Unknown_dependency of { task : string; dep : string }
  | Dependency_cycle of string list
      (** task ids on or downstream of a cycle, sorted *)

exception Invalid_graph of graph_error

(** [validate tasks] checks that [tasks] form a schedulable DAG —
    unique ids, known dependencies, no cycles — reporting the first
    problem found (in that order of priority). *)
val validate : task list -> (unit, graph_error) result

(** Simulate a task set.
    @raise Invalid_graph when {!validate} rejects the task list. *)
val simulate : task list -> run

(** [cpu server] and [link ~src ~dst] build resource names. *)
val cpu : Server.t -> string

val link : src:Server.t -> dst:Server.t -> string

(** Decompose one executed query into tasks. [prefix] namespaces the
    ids so several queries can share a simulation; [release] is the
    query's arrival time (default 0). The [outcome] must come from
    {!Engine.execute} on the same plan and assignment.

    Under fault injection each delivered transfer expands into its
    whole attempt chain: failed attempts become link tasks named
    ["<task>~aK"] (attempt [K]), each adding [backoff K] seconds of
    wait (default 0 — pass [Fault.backoff fault_plan]) on top of its
    wire time, chained by dependency before the delivered attempt,
    which keeps the un-suffixed name so downstream dependencies are
    unchanged. Waits caused by a transiently-down {e sender} leave no
    message in the log and are not priced.
    @raise Invalid_argument if the outcome does not match the plan
    (missing node measurements, unrecognised message pattern). *)
val tasks_of_execution :
  ?prefix:string ->
  ?release:float ->
  ?backoff:(int -> float) ->
  model ->
  Plan.t ->
  Planner.Assignment.t ->
  Engine.outcome ->
  task list

val pp_graph_error : graph_error Fmt.t

(** Completion time of a query's root task within a run, or [None] if
    no task under [prefix] appears in the schedule (same typed-error
    discipline as {!validate} — no bare exceptions). *)
val query_finish : run -> prefix:string -> float option

val pp_run : run Fmt.t
