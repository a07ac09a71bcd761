open Relalg
module Auth_set = Set.Make (Authorization)

(* Hash-consed canonical keys.

   Join paths and attribute sets are balanced trees whose shapes depend
   on insertion order, so they cannot be hashed structurally; their
   canonical forms (sorted element lists, and for conditions the
   oriented [Cond.pairs]) can. The interner maps each distinct
   canonical form to a small int id. Ids are global — shared by every
   policy in the process and never freed — which is exactly what the
   chase wants: a derived rule seen by one closure keeps its id for the
   next, and duplicate detection is a hash lookup plus an int-set test
   instead of a [Authorization.compare] walk. *)
module Index = struct
  (* The default polymorphic hash ([Hashtbl.hash]) samples only 10
     meaningful nodes, so the long canonical lists of wide derived
     rules — which share sorted prefixes within a server — would all
     collide and the interner would degrade to linear list scans.
     Hash deep enough to cover any realistic repr instead. *)
  module Deep (K : sig
    type t
  end) =
  Hashtbl.Make (struct
    type t = K.t

    let equal = ( = )
    let hash x = Hashtbl.hash_param 500 1000 x
  end)

  module Path_tbl = Deep (struct
    type t = (Attribute.t * Attribute.t) list list
  end)

  module Attrs_tbl = Deep (struct
    type t = Attribute.t list
  end)

  let path_tbl : int Path_tbl.t = Path_tbl.create 256
  let path_count = ref 0

  (* [conditions] is sorted and [Cond.pairs] is the canonical oriented
     form, so equal paths always produce structurally equal reprs. *)
  let path_repr p = List.map Joinpath.Cond.pairs (Joinpath.conditions p)

  let path_id p =
    let repr = path_repr p in
    match Path_tbl.find_opt path_tbl repr with
    | Some id -> id
    | None ->
      let id = !path_count in
      incr path_count;
      Path_tbl.add path_tbl repr id;
      id

  (* Non-interning lookup for the [can_view] hot path: a profile whose
     path was never granted anywhere misses here without allocating an
     id. *)
  let find_path p = Path_tbl.find_opt path_tbl (path_repr p)

  let attrs_tbl : int Attrs_tbl.t = Attrs_tbl.create 256
  let attrs_count = ref 0

  let attrs_id a =
    let repr = Attribute.Set.elements a in
    match Attrs_tbl.find_opt attrs_tbl repr with
    | Some id -> id
    | None ->
      let id = !attrs_count in
      incr attrs_count;
      Attrs_tbl.add attrs_tbl repr id;
      id

  (* Single join conditions, keyed by their canonical [Cond.pairs]
     form. The chase memoises path unions per (condition, path, path)
     triple, so conditions need stable ids of their own. *)
  module Cond_tbl = Deep (struct
    type t = (Attribute.t * Attribute.t) list
  end)

  let cond_tbl : int Cond_tbl.t = Cond_tbl.create 64
  let cond_count = ref 0

  let cond_id c =
    let repr = Joinpath.Cond.pairs c in
    match Cond_tbl.find_opt cond_tbl repr with
    | Some id -> id
    | None ->
      let id = !cond_count in
      incr cond_count;
      Cond_tbl.add cond_tbl repr id;
      id

  (* Keys here are (server, small int, small int) — the default hash
     covers them fully. *)
  let rule_tbl : (Server.t * int * int, int) Hashtbl.t = Hashtbl.create 256
  let rule_count = ref 0

  let rule_id_of server ~attrs_id ~path_id =
    let key = (server, attrs_id, path_id) in
    match Hashtbl.find_opt rule_tbl key with
    | Some id -> id
    | None ->
      let id = !rule_count in
      incr rule_count;
      Hashtbl.add rule_tbl key id;
      id

  let rule_id (a : Authorization.t) =
    rule_id_of a.server ~attrs_id:(attrs_id a.attrs) ~path_id:(path_id a.path)

  (* Whole relation profiles, keyed by their already-interned parts —
     the knowledge-saturation analogue of [rule_id]. Like every other
     id here they are process-global and never freed, so a profile
     derived during one saturation keeps its id for the next, and the
     fixpoint's membership / dedup / adds-nothing tests are int
     lookups. *)
  let profile_tbl : (int * int * int, int) Hashtbl.t = Hashtbl.create 256
  let profile_count = ref 0

  let profile_id_of ~pi_id ~path_id ~sigma_id =
    let key = (pi_id, path_id, sigma_id) in
    match Hashtbl.find_opt profile_tbl key with
    | Some id -> id
    | None ->
      let id = !profile_count in
      incr profile_count;
      Hashtbl.add profile_tbl key id;
      id

  let profile_id (p : Profile.t) =
    let pi_id = attrs_id p.Profile.pi in
    let sigma_id = attrs_id p.Profile.sigma in
    let path_id = path_id p.Profile.join in
    profile_id_of ~pi_id ~path_id ~sigma_id
end

module Int_set = Set.Make (Int)

(* [can_view] (Definition 3.3) requires join-path EQUALITY, so grants
   are indexed by (path id, server): a membership test inspects only
   the attribute sets that can possibly match. [by_attr] buckets rules
   by each attribute they mention — the chase probes it to find merge
   partners covering one side of a join condition without scanning the
   whole view. *)
module Grant_key = struct
  type t = int * Server.t

  let compare (p1, s1) (p2, s2) =
    match Int.compare p1 p2 with
    | 0 -> Server.compare s1 s2
    | c -> c
end

module Grant_map = Map.Make (Grant_key)

module Attr_key = struct
  type t = Attribute.t * Server.t

  let compare (a1, s1) (a2, s2) =
    match Attribute.compare a1 a2 with
    | 0 -> Server.compare s1 s2
    | c -> c
end

module Attr_map = Map.Make (Attr_key)

(* Rules in the [by_attr] buckets carry their interned identities, so
   the chase reads a partner's ids straight out of the bucket instead
   of re-walking its attribute set and join path per candidate pair. *)
type entry = {
  rule : Authorization.t;
  rule_id : int;
  attrs_id : int;
  path_id : int;
}

type t = {
  rules : Auth_set.t;
  ids : Int_set.t;  (** hash-consed {!Index.rule_id}s of [rules] *)
  grants : Authorization.t list Grant_map.t;
      (** rules granted per (path id, server); [can_view] and
          [authorizing_rule] both resolve through this index *)
  by_server : Auth_set.t Server.Map.t;
  by_attr : entry list Attr_map.t;
      (** rules per (mentioned attribute, server) *)
  negative : Auth_set.t;  (** denials; only consulted when [open_mode] *)
  open_mode : bool;
}

let empty =
  {
    rules = Auth_set.empty;
    ids = Int_set.empty;
    grants = Grant_map.empty;
    by_server = Server.Map.empty;
    by_attr = Attr_map.empty;
    negative = Auth_set.empty;
    open_mode = false;
  }

let mem (a : Authorization.t) t = Int_set.mem (Index.rule_id a) t.ids
let mem_id id t = Int_set.mem id t.ids

let add (a : Authorization.t) t =
  let attrs_id = Index.attrs_id a.attrs in
  let path_id = Index.path_id a.path in
  let rule_id = Index.rule_id_of a.server ~attrs_id ~path_id in
  if Int_set.mem rule_id t.ids then t
  else
    let entry = { rule = a; rule_id; attrs_id; path_id } in
    {
      t with
      rules = Auth_set.add a t.rules;
      ids = Int_set.add rule_id t.ids;
      grants =
        Grant_map.update (path_id, a.server)
          (fun existing -> Some (a :: Option.value ~default:[] existing))
          t.grants;
      by_server =
        Server.Map.update a.server
          (fun existing ->
            Some (Auth_set.add a (Option.value ~default:Auth_set.empty existing)))
          t.by_server;
      by_attr =
        Attribute.Set.fold
          (fun attr m ->
            Attr_map.update (attr, a.server)
              (fun existing ->
                Some (entry :: Option.value ~default:[] existing))
              m)
          a.attrs t.by_attr;
    }

let remove (a : Authorization.t) t =
  if not (mem a t) then t
  else
    let rid = Index.rule_id a in
    let drop = function
      | None -> None
      | Some rules ->
        let rest = Auth_set.remove a rules in
        if Auth_set.is_empty rest then None else Some rest
    in
    {
      t with
      rules = Auth_set.remove a t.rules;
      ids = Int_set.remove rid t.ids;
      grants =
        Grant_map.update
          (Index.path_id a.path, a.server)
          (fun existing ->
            match
              List.filter
                (fun (r : Authorization.t) ->
                  not (Attribute.Set.equal r.attrs a.attrs))
                (Option.value ~default:[] existing)
            with
            | [] -> None
            | rest -> Some rest)
          t.grants;
      by_server = Server.Map.update a.server drop t.by_server;
      by_attr =
        Attribute.Set.fold
          (fun attr m ->
            Attr_map.update (attr, a.server)
              (function
                | None -> None
                | Some entries ->
                  (match
                     List.filter (fun e -> e.rule_id <> rid) entries
                   with
                   | [] -> None
                   | rest -> Some rest))
              m)
          a.attrs t.by_attr;
    }

let of_list auths = List.fold_left (fun t a -> add a t) empty auths

let open_policy denials =
  { empty with negative = Auth_set.of_list denials; open_mode = true }

let is_open t = t.open_mode
let denials t = Auth_set.elements t.negative
let add_denial a t = { t with negative = Auth_set.add a t.negative }
let remove_denial a t = { t with negative = Auth_set.remove a t.negative }

let union a b = Auth_set.fold add b.rules a

let authorizations t = Auth_set.elements t.rules

let view t s =
  match Server.Map.find_opt s t.by_server with
  | None -> []
  | Some rules -> Auth_set.elements rules

let covering_entries t s = function
  | [] -> invalid_arg "Policy.covering_entries: empty attribute side"
  | probe :: _ as side ->
    (match Attr_map.find_opt (probe, s) t.by_attr with
     | None -> []
     | Some entries ->
       List.filter
         (fun e ->
           List.for_all
             (fun x -> Attribute.Set.mem x e.rule.Authorization.attrs)
             side)
         entries)

let cardinality t = Auth_set.cardinal t.rules

let servers t =
  Server.Map.fold
    (fun s _ acc -> Server.Set.add s acc)
    t.by_server Server.Set.empty

(* A denial [A, J] -> S matches when all of A is visible and the view's
   path contains J. *)
let denied t (profile : Profile.t) s =
  let visible = Profile.visible profile in
  Auth_set.exists
    (fun (d : Authorization.t) ->
      Server.equal d.server s
      && Attribute.Set.subset d.attrs visible
      && Joinpath.subset d.path profile.join)
    t.negative

let can_view t (profile : Profile.t) s =
  if t.open_mode then not (denied t profile s)
  else
    match Index.find_path profile.join with
    | None -> false
    | Some pid ->
      (match Grant_map.find_opt (pid, s) t.grants with
       | None -> false
       | Some grants ->
         let visible = Profile.visible profile in
         List.exists
           (fun (r : Authorization.t) ->
             Attribute.Set.subset visible r.attrs)
           grants)

(* [can_view] for callers (the chase) that already hold the interned
   path id and the visible set of a selection-free profile. Closed
   policies only: open-mode admission depends on the concrete join
   path, which this entry point does not see. *)
let admits t s ~path_id visible =
  match Grant_map.find_opt (path_id, s) t.grants with
  | None -> false
  | Some grants ->
    List.exists
      (fun (r : Authorization.t) -> Attribute.Set.subset visible r.attrs)
      grants

(* Shares the grants index with [can_view]: path-id equality prunes to
   the one bucket whose rules can possibly authorize the flow, instead
   of scanning every rule granted to the receiving server. *)
let authorizing_rule_indexed t (profile : Profile.t) s =
  match Index.find_path profile.join with
  | None -> None
  | Some pid ->
    (match Grant_map.find_opt (pid, s) t.grants with
     | None -> None
     | Some grants ->
       let visible = Profile.visible profile in
       List.find_opt
         (fun (r : Authorization.t) -> Attribute.Set.subset visible r.attrs)
         grants)

let authorizing_rule t (profile : Profile.t) s =
  if t.open_mode then None else authorizing_rule_indexed t profile s

let equal a b =
  Bool.equal a.open_mode b.open_mode
  && Auth_set.equal a.rules b.rules
  && Auth_set.equal a.negative b.negative

let pp ppf t =
  if t.open_mode then
    let pp_denial ppf (i, a) =
      Fmt.pf ppf "%2d DENY %a" (i + 1) Authorization.pp a
    in
    Fmt.pf ppf "@[<v>(open policy)@,%a@]"
      Fmt.(list ~sep:(any "@\n") pp_denial)
      (List.mapi (fun i a -> (i, a)) (denials t))
  else
    let pp_numbered ppf (i, a) =
      Fmt.pf ppf "%2d %a" (i + 1) Authorization.pp a
    in
    Fmt.(list ~sep:(any "@\n") pp_numbered)
      ppf
      (List.mapi (fun i a -> (i, a)) (authorizations t))
