open Relalg

(* The merge rule: [j] can combine the views of [a1] and [a2] held by
   one server when both sides of [j] are visible, one side per view (in
   either orientation); the result is [a1.attrs ∪ a2.attrs] under
   [a1.path ∪ a2.path ∪ {j}]. A merge that adds nothing over a parent —
   same path and no new attribute — is skipped: the parent rule already
   admits the derived view (Definition 3.3), so the closure filter
   would reject it one step later anyway. [rounds] below implements
   the rule on the rules' bits. *)

let default_max_rules = 100_000

(* One application of the merge rule. A closure's list of steps is
   grouped by server, each group in the order the engine performed it,
   so every premise of a step is either a base rule or the [derived] of
   an earlier step — exactly the shape the certificate checker
   ({!Analysis.Certificate}) replays in one linear pass. *)
type derivation = {
  derived : Authorization.t;
  left : Authorization.t;
  right : Authorization.t;
  via : Joinpath.Cond.t;
}

let overflow max_rules =
  invalid_arg
    (Printf.sprintf "Chase.close: closure exceeds %d rules" max_rules)

module Bits = Intern.Bits

(* One side of a join condition: its attributes' bits, and the id of
   its first attribute, whose bucket holds every rule covering it. *)
type side = { bits : Bits.t; probe : int }

(* A join condition of the graph, with its id and sides. *)
type edge = { cond : Joinpath.Cond.t; cid : int; jl : side; jr : side }

let side attrs =
  {
    bits = Intern.attrs_bits (Attribute.Set.of_list attrs);
    probe = Intern.attr_id (List.hd attrs);
  }

let edges joins =
  List.map
    (fun j ->
      {
        cond = j;
        cid = Intern.cond_id j;
        jl = side (Joinpath.Cond.left j);
        jr = side (Joinpath.Cond.right j);
      })
    joins

(* One round's state: the round-start policy every candidate is
   admitted against, the rules found fresh so far, and the scratch
   bitsets each candidate merge is computed in. [seen] holds the fresh
   rules by path bits, so a candidate derived twice in the round (from
   other parents, say) is recognised on bits. *)
type round = {
  start : Policy.t;
  open_mode : bool;
  record : derivation -> unit;
  seen : Authorization.t list Bits.Tbl.t;
  attrs : Bits.scratch;
  path : Bits.scratch;
  mutable fresh : Authorization.t list;
}

let rec seen_in (s : Server.t) attrs = function
  | [] -> false
  | (d : Authorization.t) :: rest ->
    (Bits.equal attrs d.attrs_bits && Server.equal s d.server)
    || seen_in s attrs rest

let seen r s ~path ~attrs =
  match Bits.Tbl.find r.seen path with
  | fresh -> seen_in s attrs fresh
  | exception Not_found -> false

let keep r (d : Authorization.t) a1 a2 e =
  let same_path =
    match Bits.Tbl.find r.seen d.path_bits with
    | fresh -> fresh
    | exception Not_found -> []
  in
  Bits.Tbl.replace r.seen d.path_bits (d :: same_path);
  r.record { derived = d; left = a1; right = a2; via = e.cond };
  r.fresh <- d :: r.fresh

let derived_sets (a1 : Authorization.t) (a2 : Authorization.t) e =
  ( Attribute.Set.union a1.attrs a2.attrs,
    Joinpath.add e.cond (Joinpath.union a1.path a2.path) )

(* A candidate that adds something and is new to the round: only now
   are its tree sets built, and only when the round-start policy does
   not admit it. A closed policy admits on bits ([Policy.part_admits]);
   an open one through [can_view] against its denials, and holds a
   rule only if it is a member. *)
let admit r part (a1 : Authorization.t) a2 e =
  if r.open_mode then begin
    let attrs, path = derived_sets a1 a2 e in
    if
      not
        (Policy.can_view r.start
           (Profile.make ~pi:attrs ~join:path ~sigma:Attribute.Set.empty)
           a1.server)
    then
      match Authorization.make ~attrs ~path a1.server with
      | Ok d when not (Policy.mem d r.start) -> keep r d a1 a2 e
      | Ok _ | Error _ -> ()
  end
  else if
    not
      (Policy.part_admits part ~path:(Bits.view r.path)
         ~attrs:(Bits.view r.attrs))
  then
    let attrs, path = derived_sets a1 a2 e in
    match Authorization.make ~attrs ~path a1.server with
    | Ok d -> keep r d a1 a2 e
    | Error _ -> ()

(* One candidate pair: two unions into the scratch bitsets, then the
   adds-nothing test (the derived rule equals a parent iff it has the
   parent's attribute bits AND path bits) and the round's dedupe. No
   allocation until [admit] finds the candidate fresh. *)
let examine r part (a1 : Authorization.t) e (a2 : Authorization.t) =
  Bits.union_into r.attrs a1.attrs_bits a2.attrs_bits;
  Bits.union_into r.path a1.path_bits a2.path_bits;
  Bits.add_into r.path e.cid;
  let attrs = Bits.view r.attrs and path = Bits.view r.path in
  if
    not
      ((Bits.equal attrs a1.attrs_bits && Bits.equal path a1.path_bits)
      || (Bits.equal attrs a2.attrs_bits && Bits.equal path a2.path_bits)
      || seen r a1.server ~path ~attrs)
  then admit r part a1 a2 e

let rec partners r part a1 e other = function
  | [] -> ()
  | (a2 : Authorization.t) :: rest ->
    if Bits.subset other.bits a2.attrs_bits then examine r part a1 e a2;
    partners r part a1 e other rest

let rec merges r part (a1 : Authorization.t) = function
  | [] -> ()
  | e :: rest ->
    if Bits.subset e.jl.bits a1.attrs_bits then
      partners r part a1 e e.jr (Policy.bucket part e.jr.probe);
    if Bits.subset e.jr.bits a1.attrs_bits then
      partners r part a1 e e.jl (Policy.bucket part e.jl.probe);
    merges r part a1 rest

(* Semi-naive rounds. [frontier] is the list of rules added in the
   previous round (initially the explicit rules); each round merges
   only (frontier x policy) pairs, so over the whole run every
   unordered rule pair is examined once — at the first round where both
   members are present. Merge partners come from the server's
   per-attribute buckets ({!Policy.bucket}) and a rule covers a side of
   a condition when the side's bits are a subset of its own. The
   admission filter runs against the round-start policy, so the result
   is the rule set an all-pairs rescan per round reaches (the
   differential suite in test_chase_diff.ml compares the two). *)
let rec rounds ~record ~max_rules ~edges policy frontier =
  if Policy.cardinality policy > max_rules then overflow max_rules;
  match frontier with
  | [] -> policy
  | _ ->
    let r =
      {
        start = policy;
        open_mode = Policy.is_open policy;
        record;
        seen = Bits.Tbl.create 64;
        attrs = Bits.scratch ();
        path = Bits.scratch ();
        fresh = [];
      }
    in
    List.iter
      (fun (a1 : Authorization.t) ->
        merges r (Policy.part policy a1.server) a1 edges)
      frontier;
    (match r.fresh with
     | [] -> policy
     | fresh ->
       let next = List.fold_left (fun p d -> Policy.add d p) policy fresh in
       (* Fresh rules are distinct and the policy admits none of them,
          so each one adds a rule; a rule whose bits disagreed with its
          parts would instead be re-derived every round, forever. *)
       assert (
         Policy.cardinality next = Policy.cardinality policy + List.length fresh);
       rounds ~record ~max_rules ~edges next fresh)

let close ?(max_rules = default_max_rules) ~joins policy =
  rounds ~record:ignore ~max_rules ~edges:(edges joins) policy
    (Policy.authorizations policy)

(* The merge rule joins two rules of one server, and [rounds] finds
   partners, admits and dedupes through that server's rules alone: the
   run restricted to one server is that server's own run, in the same
   order. So traces are grouped by server, each group in derivation
   order, and [revoke] re-derives one group in its slot. *)
let by_server =
  List.stable_sort (fun d1 d2 -> Server.compare d1.derived.server d2.derived.server)

let rounds_trace ~max_rules ~joins policy frontier =
  let acc = ref [] in
  let record d = acc := d :: !acc in
  let closure =
    rounds ~record ~max_rules ~edges:(edges joins) policy frontier
  in
  (closure, List.rev !acc)

let close_trace ?(max_rules = default_max_rules) ~joins policy =
  let closure, trace =
    rounds_trace ~max_rules ~joins policy (Policy.authorizations policy)
  in
  (closure, by_server trace)

type justification =
  | Granted
  | Composed of { left : int; right : int; via : Joinpath.Cond.t }

type table = {
  position : (int, int) Hashtbl.t;
  entries : (Authorization.t * justification) array;
}

(* A trace is chronological, so premises resolve to earlier positions;
   only a hand-built trace can have a step this drops. *)
let table_of_trace base trace =
  let position = Hashtbl.create 64 and entries = ref [] in
  let push (auth : Authorization.t) just =
    if not (Hashtbl.mem position auth.id) then begin
      Hashtbl.add position auth.id (Hashtbl.length position);
      entries := (auth, just) :: !entries
    end
  in
  List.iter (fun a -> push a Granted) (Policy.authorizations base);
  List.iter
    (fun d ->
      match
        ( Hashtbl.find_opt position d.left.id,
          Hashtbl.find_opt position d.right.id )
      with
      | Some left, Some right -> push d.derived (Composed { left; right; via = d.via })
      | _ -> ())
    trace;
  { position; entries = Array.of_list (List.rev !entries) }

let position t (a : Authorization.t) = Hashtbl.find_opt t.position a.id
let entry t i = t.entries.(i)
let entries t = Array.to_list t.entries

(* Incremental handle: the closure and its derivation table are built at
   most once per policy state and shared by every holder of the handle. *)
type closed = {
  base : Policy.t;
  joins : Joinpath.Cond.t list;
  max_rules : int;
  closure : (Policy.t * derivation list) Lazy.t;
  table : table Lazy.t;
}

let handle ~max_rules ~joins base closure =
  let table = lazy (table_of_trace base (snd (Lazy.force closure))) in
  { base; joins; max_rules; closure; table }

let closed_policy ?(max_rules = default_max_rules) ~joins policy =
  handle ~max_rules ~joins policy (lazy (close_trace ~max_rules ~joins policy))

let policy t = t.base
let joins t = t.joins
let closure t = fst (Lazy.force t.closure)
let table t = Lazy.force t.table
let can_view t profile s = Policy.can_view (closure t) profile s

let add a t =
  if Policy.mem a t.base then t
  else
    let base = Policy.add a t.base in
    let closure =
      if Lazy.is_val t.closure then
        (* Semi-naive increment: the new rule is the whole frontier.
           The result can differ from [close base] as a rule SET (the
           cached closure may already admit views that a from-scratch
           run keeps as explicit derived rules) but admits exactly the
           same releases — extensional equality, which is what every
           consumer of a policy observes. *)
        let prev, trace = Lazy.force t.closure in
        lazy
          (let p, steps =
             rounds_trace ~max_rules:t.max_rules ~joins:t.joins
               (Policy.add a prev) [ a ]
           in
           (p, trace @ steps))
      else lazy (close_trace ~max_rules:t.max_rules ~joins:t.joins base)
    in
    handle ~max_rules:t.max_rules ~joins:t.joins base closure

(* Only [a]'s server [s] can lose derived rules (see [by_server]): the
   others keep their parts and steps, and [s]'s part becomes the base's
   part, re-closed, so on any handle its group comes out step for step
   as from scratch. *)
let revoke a t =
  if not (Policy.mem a t.base) then t
  else
    let base = Policy.remove a t.base in
    if not (Lazy.is_val t.closure) then
      closed_policy ~max_rules:t.max_rules ~joins:t.joins base
    else
      let s = a.server and prev, trace = Lazy.force t.closure in
      let closure =
        lazy
          (let p, steps =
             rounds_trace ~max_rules:t.max_rules ~joins:t.joins
               (Policy.with_part s (Policy.part base s) prev)
               (Policy.view base s)
           in
           let others =
             List.filter (fun d -> not (Server.equal d.derived.server s)) trace
           in
           (p, by_server (others @ steps)))
      in
      handle ~max_rules:t.max_rules ~joins:t.joins base closure

let derives ~joins policy profile s =
  can_view (closed_policy ~joins policy) profile s
