open Relalg

(* The merge rule: [j] can combine the views of [a1] and [a2] held by
   one server when both sides of [j] are visible, one side per view (in
   either orientation); the result is [a1.attrs ∪ a2.attrs] under
   [a1.path ∪ a2.path ∪ {j}]. A merge that adds nothing over a parent —
   same path and no new attribute — is skipped: the parent rule already
   admits the derived view (Definition 3.3), so the closure filter
   would reject it one step later anyway. [rounds] below implements
   the rule on interned ids. *)

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

(* Union memos, keyed on interned ids. A closure derives the same few
   hundred distinct rules from tens of thousands of candidate pairs
   (the same wide rule arises from many different parents), so the
   expensive part of a merge — the attribute-set and join-path unions —
   is computed once per distinct pair of operands and afterwards costs
   a small-int hash probe. The keys are canonical (attribute sets and
   paths are interned on their sorted forms, conditions on their
   oriented pairs), so the tables are sound process-wide and shared
   across closures, like the {!Intern} interner itself. *)
let attrs_memo : (int * int, Attribute.Set.t * int) Hashtbl.t =
  Hashtbl.create 1024

let path_memo : (int * int * int, Joinpath.t * int) Hashtbl.t =
  Hashtbl.create 1024

let union_attrs aid1 s1 aid2 s2 =
  let key = if aid1 <= aid2 then (aid1, aid2) else (aid2, aid1) in
  match Hashtbl.find_opt attrs_memo key with
  | Some v -> v
  | None ->
    let u = Attribute.Set.union s1 s2 in
    let v = (u, Intern.attrs_id u) in
    Hashtbl.add attrs_memo key v;
    v

let union_path cid j pid1 p1 pid2 p2 =
  let key = if pid1 <= pid2 then (cid, pid1, pid2) else (cid, pid2, pid1) in
  match Hashtbl.find_opt path_memo key with
  | Some v -> v
  | None ->
    let u = Joinpath.add j (Joinpath.union p1 p2) in
    let v = (u, Intern.path_id u) in
    Hashtbl.add path_memo key v;
    v

(* Semi-naive rounds. [frontier] is the list of rules added in the
   previous round (initially the explicit rules); each round merges
   only (frontier x policy) pairs, so over the whole run every
   unordered rule pair is examined once — at the first round where both
   members are present. Merge partners come from the policy's
   per-(server, attribute) buckets ({!Policy.covering_entries}), and
   every rule carries its interned ids, so a candidate merge is: two
   memoised unions, an id-level adds-nothing test, and duplicate
   detection on the hash-consed rule id ({!Intern.rule_id_of}) — the
   derived rule is only constructed when it is genuinely fresh. The
   admission filter runs against the round-start policy, so the result
   is the rule set an all-pairs rescan per round reaches (the
   differential suite in test_chase_diff.ml compares the two). *)
let rec rounds ?(record = fun (_ : derivation) -> ()) ~max_rules ~joins
    policy frontier =
  if Policy.cardinality policy > max_rules then overflow max_rules;
  match frontier with
  | [] -> policy
  | _ ->
    let open_mode = Policy.is_open policy in
    let jinfo =
      List.map
        (fun j ->
          (j, Intern.cond_id j, Joinpath.Cond.left j, Joinpath.Cond.right j))
        joins
    in
    let seen = Hashtbl.create 64 in
    let fresh = ref [] in
    List.iter
      (fun (a1 : Authorization.t) ->
        let aid1 = a1.attrs_id and pid1 = a1.path_id in
        List.iter
          (fun (j, cid, jl, jr) ->
            let covers side =
              List.for_all (fun x -> Attribute.Set.mem x a1.attrs) side
            in
            let partners other =
              List.iter
                (fun (a2 : Authorization.t) ->
                  let attrs, aid = union_attrs aid1 a1.attrs a2.attrs_id a2.attrs in
                  let path, pid = union_path cid j pid1 a1.path a2.path_id a2.path in
                  (* Adds-nothing skip on ids: the derived rule equals a
                     parent iff it has the parent's attribute set AND
                     join path (see [merge]). *)
                  if
                    not
                      ((aid = aid1 && pid = pid1)
                       || (aid = a2.attrs_id && pid = a2.path_id))
                  then begin
                    let rid =
                      Intern.rule_id_of a1.server ~attrs_id:aid ~path_id:pid
                    in
                    if
                      (not (Hashtbl.mem seen rid))
                      && (not (Policy.mem_id rid policy))
                      && not
                           (if open_mode then
                              Policy.can_view policy
                                (Profile.make ~pi:attrs ~join:path
                                   ~sigma:Attribute.Set.empty)
                                a1.server
                            else Policy.admits policy a1.server ~path_id:pid attrs)
                    then begin
                      match Authorization.make ~attrs ~path a1.server with
                      | Ok d ->
                        Hashtbl.add seen rid ();
                        record { derived = d; left = a1; right = a2; via = j };
                        fresh := d :: !fresh
                      | Error _ -> ()
                    end
                  end)
                (Policy.covering_entries policy a1.server other)
            in
            if covers jl then partners jr;
            if covers jr then partners jl)
          jinfo)
      frontier;
    (match !fresh with
     | [] -> policy
     | fresh ->
       let next = List.fold_left (fun p d -> Policy.add d p) policy fresh in
       (* Fresh rules have distinct ids the policy lacks, so each one
          adds a rule; a rule whose id disagreed with its parts would
          instead be re-derived every round, forever. *)
       assert (
         Policy.cardinality next = Policy.cardinality policy + List.length fresh);
       rounds ~record ~max_rules ~joins next fresh)

let close ?(max_rules = default_max_rules) ~joins policy =
  rounds ~max_rules ~joins policy (Policy.authorizations policy)

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
  let closure = rounds ~record ~max_rules ~joins policy frontier in
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
   others keep their rules and steps, and [s] restarts from its base
   rules, left in the base's bucket order, so on a from-scratch handle
   its group comes out step for step as from scratch. *)
let revoke a t =
  if not (Policy.mem a t.base) then t
  else
    let base = Policy.remove a t.base in
    if not (Lazy.is_val t.closure) then
      closed_policy ~max_rules:t.max_rules ~joins:t.joins base
    else
      let s = a.server and prev, trace = Lazy.force t.closure in
      let drop p r = if Policy.mem r base then p else Policy.remove r p in
      let closure =
        lazy
          (let p, steps =
             rounds_trace ~max_rules:t.max_rules ~joins:t.joins
               (List.fold_left drop prev (Policy.view prev s))
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
