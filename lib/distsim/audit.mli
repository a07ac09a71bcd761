(** Runtime audit of a distributed execution.

    Replays the message log of an execution against the policy: every
    transmitted relation must be covered by an authorization of its
    receiver (Definition 3.3), and the transmitted data must actually
    match the profile it claims (its header must equal the profile's
    [pi] component).

    The audit is the last line of defence: the planner proves safety at
    planning time, the engine derives each transmission's profile from
    the operations it performs (once, when it compiles the plan), and
    the audit cross-checks the two. A tampered assignment that somehow
    reached execution is caught here. *)

open Relalg
open Authz

type reason =
  | Unauthorized  (** no authorization admits the flow *)
  | Header_mismatch of {
      header : Attribute.Set.t;
      claimed : Attribute.Set.t;
    }  (** transmitted attributes differ from the declared profile *)

type violation = {
  message : Network.message;
  reason : reason;
}

(** The compliance record of one admitted flow: who sent it to whom,
    at which join node, under which rule, and how much crossed the
    wire. It holds no data: no {!Relalg.Relation.t}, no
    {!Authz.Profile.t} and no note. Who may receive what is the whole
    guarantee (Definition 3.3), and under it the admitting rule already
    bounds what the receiver learned: the flow's profile was checked
    against it, so [R{^π} ∪ R{^σ} ⊆ A] and [R{^join} = J]. A log of
    entries therefore stays small however much data its flows moved. *)
type entry = {
  request : int;  (** the request tick the caller passed to {!run} *)
  seq : int;  (** the message's send order within the execution *)
  sender : Server.t;
  receiver : Server.t;
  join : int;  (** the join node whose protocol step sent it *)
  admitted_by : Authorization.t option;
      (** the rule granted to [receiver] that admits the flow; [None]
          under an open-mode policy, which admits by the absence of a
          matching denial and has no positive rule to cite *)
  rows : int;  (** tuples the flow disclosed *)
  bytes : int;  (** {!Network.wire_bytes} *)
}

(** [run ?request policy network] checks every message, delivered or
    not, and returns one entry per message in send order, each stamped
    with [request] (default [0]), or every violation. A closed policy
    costs one {!Authz.Policy.authorizing_rule} probe per message, keyed
    by the message's {!Network.message.path_id} rather than by
    re-interning its join path; only an open-mode policy asks
    {!Authz.Policy.can_view}. *)
val run :
  ?request:int -> Policy.t -> Network.t -> (entry list, violation list) result

(** [is_clean policy network] — no violation. *)
val is_clean : Policy.t -> Network.t -> bool

val pp_violation : violation Fmt.t
val pp_entry : entry Fmt.t
