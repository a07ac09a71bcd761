(** Random relation instances for synthetic systems.

    Key attributes of relation [Ri] take the distinct values
    [0 .. rows-1]; link attributes [Ri_to_Rj] take uniform values in
    [\[0, rows × domain_scale)], so the fraction of link values hitting
    an existing key — the join selectivity — is [1 / domain_scale];
    payload attributes take uniform values in [\[0, 1000)].

    [null_share] (default [0.0]) is the probability that a value, key
    or not, is [Null] instead: NULL join keys then meet on both sides of
    a join, where they match each other. A zero share draws nothing
    more from the generator, so it leaves every other value as it
    was. *)

open Relalg

(** [instances rng ~rows ~domain_scale sys] generates one instance per
    relation of the system and returns the lookup used by the
    simulator. *)
val instances :
  Rng.t ->
  rows:int ->
  ?domain_scale:float ->
  ?null_share:float ->
  System_gen.t ->
  string ->
  Relation.t option

(** Instance for a single schema (keys sequential, other attributes
    uniform in the scaled domain). *)
val instance :
  Rng.t ->
  rows:int ->
  ?domain_scale:float ->
  ?null_share:float ->
  Schema.t ->
  Relation.t
