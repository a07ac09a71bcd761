(** The message log of a simulated distributed execution.

    Every relation crossing a server boundary is recorded together with
    the profile describing its information content; the log is what the
    {!module:Audit} checks against the policy, and what benches measure
    (bytes and tuples actually moved). *)

open Relalg
open Authz

(** Why a message was sent — the protocol step of Figure 5 it
    implements, keyed by the join node. *)
type purpose =
  | Full_operand of { join : int }
      (** regular join: the non-master operand's result *)
  | Join_attributes of { join : int }
      (** semi-join step 2: the master's join-attribute projection *)
  | Semijoin_result of { join : int }
      (** semi-join step 4: the reduced operand going back *)
  | Matched_keys of { join : int }
      (** coordinator join: matching join-column values sent by the
          coordinator to the non-master operand *)
  | Proxy_operand of { join : int; side : [ `Left | `Right ] }
      (** third-party join: an operand shipped to the proxy *)

(** The join node a protocol step belongs to. *)
val join_of : purpose -> int

(** The fate of one transmission attempt under fault injection.
    Whatever the fate, the {e emission} happened — the sender released
    the data onto the wire — so every message is audited, delivered or
    not: a drop never excuses an unauthorized flow. *)
type delivery =
  | Delivered
  | Dropped  (** lost in transit (or the receiver was down) *)
  | Corrupted  (** arrived damaged; discarded by the receiver *)

(** Wire representation of the message. [Rows] ships the relation
    itself; [Filter] ships a Bloom filter summarising its join column
    (semi-join step 2 under [--bloom]) — [data] still records the
    projected column the filter was built from, because that is the
    information the filter discloses (its profile, and what the audit
    checks), but only [bits] actually cross the wire. *)
type payload =
  | Rows
  | Filter of { bits : int; hashes : int }

type message = {
  seq : int;  (** send order, from 0 *)
  sender : Server.t;
  receiver : Server.t;
  data : Relation.t;
  payload : payload;
  profile : Profile.t;
  path_id : int;
      (** the interned id of [profile]'s join path
          ({!Authz.Intern.path_id}): the key {!Audit.run} finds the
          flow's rules by *)
  purpose : purpose;
  note : string;  (** human-readable step, e.g. ["semi-join at n1"] *)
  attempt : int;  (** 1 for the first transmission, 2+ for retries *)
  delivery : delivery;
}

(** Bytes the message occupies on the wire: {!Relation.byte_size} of
    [data] for [Rows], [bits/8] rounded up for [Filter]. All byte
    accounting ({!total_bytes}, {!traffic_matrix}, {!Des}) prices
    messages through this. *)
val wire_bytes : message -> int

type t

val create : unit -> t

(** Record a transfer; returns the sent data unchanged so sends chain
    naturally inside expressions. [attempt] defaults to [1], [delivery]
    to [Delivered] and [payload] to [Rows] — fault-free row-shipping
    code never mentions them. [path_id] must be
    [Authz.Intern.path_id profile.join], which the engine computes once
    per compiled transmission; when omitted, [send] interns the path
    itself. The message is numbered in O(1). *)
val send :
  t ->
  ?attempt:int ->
  ?delivery:delivery ->
  ?payload:payload ->
  ?path_id:int ->
  sender:Server.t ->
  receiver:Server.t ->
  profile:Profile.t ->
  purpose:purpose ->
  note:string ->
  Relation.t ->
  Relation.t

(** Delivered messages belonging to one join node, in send order — the
    protocol structure, as {!Des} pattern-matches it. *)
val at_join : t -> int -> message list

(** Every attempt at one join node, failed ones included — what the
    retries actually cost. *)
val attempts_at_join : t -> int -> message list

(** Delivered messages only, in send order. *)
val delivered : t -> message list

(** Number of messages with [attempt > 1]. *)
val retransmissions : t -> int

(** Merge several logs into one, renumbering [seq] in order, in time
    linear in the messages — the
    cumulative log of a recovered execution (every aborted attempt's
    emissions followed by the final run's), ready for {!Audit.run}. *)
val concat : t list -> t

(** Messages in send order. *)
val messages : t -> message list

(** In O(1). *)
val message_count : t -> int
val total_tuples : t -> int
val total_bytes : t -> int

(** Bytes per (sender, receiver) pair, lexicographic order. *)
val traffic_matrix : t -> ((Server.t * Server.t) * int) list

val pp_delivery : delivery Fmt.t
val pp_message : message Fmt.t
val pp : t Fmt.t
