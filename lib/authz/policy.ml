open Relalg
module Auth_set = Set.Make (Authorization)
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

(* The epoch: an order-independent sum, mod 2^128, of per-rule MD5
   digests, so [add] and [remove] move it in O(1). The digest is taken
   over a canonical text — the server, qualified attribute names and
   oriented join conditions, each name length-prefixed — so equal rules
   always hash alike, in every process. *)
module Sum = struct
  type t = { hi : int64; lo : int64 }

  let zero = { hi = 0L; lo = 0L }

  let of_digest d =
    { hi = String.get_int64_be d 0; lo = String.get_int64_be d 8 }

  let add a b =
    let lo = Int64.add a.lo b.lo in
    let carry = if Int64.unsigned_compare lo a.lo < 0 then 1L else 0L in
    { hi = Int64.add (Int64.add a.hi b.hi) carry; lo }

  let sub a b =
    let lo = Int64.sub a.lo b.lo in
    let borrow = if Int64.unsigned_compare a.lo b.lo < 0 then 1L else 0L in
    { hi = Int64.sub (Int64.sub a.hi b.hi) borrow; lo }

  let to_hex s = Printf.sprintf "%016Lx%016Lx" s.hi s.lo
end

let canonical_text (a : Authorization.t) =
  let b = Buffer.create 64 in
  let word w =
    Buffer.add_string b (string_of_int (String.length w));
    Buffer.add_char b ':';
    Buffer.add_string b w
  in
  let attr x =
    word (Attribute.relation x);
    word (Attribute.name x)
  in
  word (Server.name a.server);
  Buffer.add_char b '{';
  Attribute.Set.iter attr a.attrs;
  Buffer.add_char b '}';
  List.iter
    (fun c ->
      Buffer.add_char b '(';
      List.iter
        (fun (l, r) ->
          attr l;
          attr r)
        (Joinpath.Cond.pairs c);
      Buffer.add_char b ')')
    (Joinpath.conditions a.path);
  Buffer.contents b

(* Memoised by rule id, like the interner: a rule's digest is taken
   once per process. *)
let digests : (int, Sum.t) Hashtbl.t = Hashtbl.create 256

let digest (a : Authorization.t) =
  match Hashtbl.find_opt digests a.id with
  | Some d -> d
  | None ->
    let d = Sum.of_digest (Digest.string (canonical_text a)) in
    Hashtbl.add digests a.id d;
    d

type t = {
  rules : Auth_set.t;
  ids : Int_set.t;  (** the [Authorization.id]s of [rules] *)
  count : int;  (** the size of [rules] *)
  epoch : Sum.t;  (** the sum of the digests of [rules] *)
  grants : Authorization.t list Grant_map.t;
      (** rules granted per (path id, server); [can_view] and
          [authorizing_rule] both resolve through this index *)
  by_server : Auth_set.t Server.Map.t;
  by_attr : Authorization.t list Attr_map.t;
      (** rules per (mentioned attribute, server) *)
  negative : Auth_set.t;  (** denials; only consulted when [open_mode] *)
  open_mode : bool;
}

let empty =
  {
    rules = Auth_set.empty;
    ids = Int_set.empty;
    count = 0;
    epoch = Sum.zero;
    grants = Grant_map.empty;
    by_server = Server.Map.empty;
    by_attr = Attr_map.empty;
    negative = Auth_set.empty;
    open_mode = false;
  }

let mem (a : Authorization.t) t = Int_set.mem a.id t.ids
let mem_id id t = Int_set.mem id t.ids

let add (a : Authorization.t) t =
  if Int_set.mem a.id t.ids then t
  else
    {
      t with
      rules = Auth_set.add a t.rules;
      ids = Int_set.add a.id t.ids;
      count = t.count + 1;
      epoch = Sum.add t.epoch (digest a);
      grants =
        Grant_map.update (a.path_id, a.server)
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
              (fun existing -> Some (a :: Option.value ~default:[] existing))
              m)
          a.attrs t.by_attr;
    }

let remove (a : Authorization.t) t =
  if not (mem a t) then t
  else
    let others (r : Authorization.t) = r.id <> a.id in
    let drop = function
      | None -> None
      | Some rules ->
        let rest = Auth_set.remove a rules in
        if Auth_set.is_empty rest then None else Some rest
    in
    {
      t with
      rules = Auth_set.remove a t.rules;
      ids = Int_set.remove a.id t.ids;
      count = t.count - 1;
      epoch = Sum.sub t.epoch (digest a);
      grants =
        Grant_map.update (a.path_id, a.server)
          (fun existing ->
            match List.filter others (Option.value ~default:[] existing) with
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
                | Some rules ->
                  (match List.filter others rules with
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
let epoch t = Sum.to_hex t.epoch

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
     | Some rules ->
       List.filter
         (fun (r : Authorization.t) ->
           List.for_all (fun x -> Attribute.Set.mem x r.attrs) side)
         rules)

let cardinality t = t.count

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

(* The rules granted to [s] under the join path [path_id]: the one
   bucket whose rules can possibly authorize a flow on that path. *)
let granted t ~path_id s =
  Option.value ~default:[] (Grant_map.find_opt (path_id, s) t.grants)

let covers visible (r : Authorization.t) = Attribute.Set.subset visible r.attrs

let authorizing_rule t ~path_id s visible =
  if t.open_mode then None
  else List.find_opt (covers visible) (granted t ~path_id s)

let can_view t (profile : Profile.t) s =
  if t.open_mode then not (denied t profile s)
  else
    match Intern.find_path profile.join with
    | None -> false
    | Some path_id ->
      List.exists (covers (Profile.visible profile)) (granted t ~path_id s)

(* [can_view] for callers (the chase) that already hold the interned
   path id and the visible set of a selection-free profile. Closed
   policies only: open-mode admission depends on the concrete join
   path, which this entry point does not see. *)
let admits t s ~path_id visible =
  List.exists (covers visible) (granted t ~path_id s)

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
