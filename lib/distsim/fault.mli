(** Deterministic fault injection for the distributed simulator.

    The engine of {!Engine} executes Figure-5 protocols over perfect
    servers and links. This module supplies the imperfection: a
    declarative, seeded {!plan} — server crash windows, per-link drop
    and corruption probabilities, bounded retries with exponential
    backoff — and an {e injector} ({!t}) that the engine consults at
    every {!Network.send} and compute step.

    Time is logical: the injector keeps a step counter that advances on
    every consulted event (one transmission attempt, one compute, one
    backoff wait each cost one step), so crash windows are expressed in
    steps and a transient outage heals as the execution retries through
    it. All randomness comes from a {!Workload.Rng} stream seeded by the
    plan, and every consultation advances the injector in call order —
    the same plan over the same execution yields byte-identical
    behaviour, which is what makes faulty runs replayable (asserted by
    the replay test and the fault soak).

    Safety invariant served here: the injector never fabricates or
    redirects data; it only decides whether an already-authorized
    emission is delivered, lost or corrupted. Retransmissions re-emit
    the same profile, so the {!Audit} judges them by the same rule. *)

open Relalg

(** A server outage starting at [from_step]; [until = None] is a
    permanent crash, [Some s] a transient outage healing at step [s]
    (exclusive). *)
type window = {
  from_step : int;
  until : int option;
}

type crash = {
  server : Server.t;
  window : window;
}

(** Loss characteristics of a directed link. *)
type link_profile = {
  drop : float;  (** probability a transmission attempt is lost *)
  corrupt : float;
      (** probability it arrives corrupted (detected and discarded by
          the receiver, who asks for a retransmission) *)
}

val perfect_link : link_profile

type plan = {
  seed : int;  (** seeds the injector's RNG stream *)
  crashes : crash list;
  default_link : link_profile;
  links : ((string * string) * link_profile) list;
      (** per-link overrides, keyed by (sender, receiver) server name *)
  max_retries : int;  (** retransmission attempts after the first *)
  backoff_base : float;  (** seconds before the first retry *)
  backoff_factor : float;  (** multiplier per further retry *)
  backoff_ceiling : float;
      (** cap on {e cumulative} backoff seconds per injector — once
          reached, further waits cost zero simulated time (and are
          flagged [clamped] in the schedule), so a pathological retry
          plan cannot grow logical time without bound *)
}

(** No crashes, perfect links. It is what {!Engine.execute} runs
    under when given no injector, so a fault-free execution and one
    under [reliable] are the same execution by construction. *)
val reliable : plan

val make :
  ?crashes:crash list ->
  ?default_link:link_profile ->
  ?links:((string * string) * link_profile) list ->
  ?max_retries:int ->
  ?backoff_base:float ->
  ?backoff_factor:float ->
  ?backoff_ceiling:float ->
  seed:int ->
  unit ->
  plan

(** [crash ?until server ~at] — convenience constructor;
    [until = None] (default) is permanent. *)
val crash : ?until:int -> Server.t -> at:int -> crash

(** Deterministic backoff before retry [attempt] (1-based):
    [backoff_base *. backoff_factor ^ (attempt - 1)]. *)
val backoff : plan -> int -> float

(** A random plan for soaks and sweeps: 0–2 crash windows (transient or
    permanent) over the given servers, small drop/corruption
    probabilities, bounded retries. Pure function of the RNG state. *)
val random_plan : Workload.Rng.t -> servers:Server.t list -> plan

val pp_plan : plan Fmt.t

(** {1 The injector} *)

type t

(** A fresh injector at step 0. Its RNG stream is created only when
    some link of the plan can drop or corrupt a message. Otherwise
    every roll would come out [Deliver], so none is drawn, and
    schedules and outcomes are unchanged. *)
val start : plan -> t
val plan_of : t -> plan

(** Logical steps consumed so far. *)
val steps : t -> int

(** Simulated seconds spent waiting in backoffs so far. *)
val total_delay : t -> float

type status =
  | Up
  | Transient  (** inside a healing window — retrying may succeed *)
  | Permanent  (** crashed for good — only a failover can help *)

(** Availability of a server at the current step. Does not advance the
    injector. *)
val status : t -> Server.t -> status

(** One compute step by [server] (for plan node [node]): advances one
    step and reports the server's availability. An outage is recorded
    in the schedule. *)
val compute : t -> server:Server.t -> node:int -> status

type verdict =
  | Deliver
  | Drop
  | Corrupt

(** One transmission attempt: advances one step, rolls the link's
    drop/corruption probabilities. Caller is responsible for checking
    endpoint availability first ({!status}). *)
val transmission :
  t -> sender:Server.t -> receiver:Server.t -> attempt:int -> verdict

(** Backoff before retry [attempt]: advances one step, accrues the
    delay (clamped so cumulative delay never exceeds the plan's
    [backoff_ceiling]), records a schedule entry, and returns the
    waited seconds. *)
val wait : t -> attempt:int -> float

(** {1 The retry schedule}

    Everything the injector decided, in order — the deterministic
    record the replay test compares. *)

type event =
  | Attempted of {
      step : int;
      sender : Server.t;
      receiver : Server.t;
      attempt : int;
      verdict : verdict;
    }
  | Waited of { step : int; attempt : int; delay : float; clamped : bool }
      (** [clamped] — the raw exponential delay was cut down (possibly
          to zero) by the plan's cumulative [backoff_ceiling] *)
  | Outage of { step : int; server : Server.t; node : int; permanent : bool }

val events : t -> event list

val pp_event : event Fmt.t
val pp_verdict : verdict Fmt.t
