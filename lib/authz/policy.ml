open Relalg
module Auth_set = Set.Make (Authorization)
module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

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

(* A policy is split by server: the merge rule joins two rules of one
   server, and Definition 3.3 admits a release to one server by that
   server's rules, so every index lives in the server's part.
   [can_view] requires join-path EQUALITY, so [grants] indexes the
   rules by path id: a check inspects only the attribute sets that can
   possibly match. [by_attr] buckets the rules by each attribute id
   they mention, newest first — the chase probes it for merge partners
   covering one side of a join condition. *)
type part = {
  rules : Auth_set.t;
  ids : Int_set.t;  (** the [Authorization.id]s of [rules] *)
  size : int;  (** the size of [rules] *)
  sum : Sum.t;  (** the sum of the digests of [rules] *)
  grants : Authorization.t list Int_map.t;  (** rules per path id *)
  by_attr : Authorization.t list Int_map.t;  (** rules per attribute id *)
}

type t = {
  parts : part Server.Map.t;  (** no part is empty *)
  count : int;  (** the number of rules *)
  epoch : Sum.t;  (** the sum of the digests of the rules *)
  negative : Auth_set.t;  (** denials; only consulted when [open_mode] *)
  open_mode : bool;
}

let empty_part =
  {
    rules = Auth_set.empty;
    ids = Int_set.empty;
    size = 0;
    sum = Sum.zero;
    grants = Int_map.empty;
    by_attr = Int_map.empty;
  }

let empty =
  {
    parts = Server.Map.empty;
    count = 0;
    epoch = Sum.zero;
    negative = Auth_set.empty;
    open_mode = false;
  }

let part t s =
  match Server.Map.find s t.parts with
  | p -> p
  | exception Not_found -> empty_part

let with_part s p t =
  let old = part t s in
  {
    t with
    parts =
      (if p.size = 0 then Server.Map.remove s t.parts
       else Server.Map.add s p t.parts);
    count = t.count - old.size + p.size;
    epoch = Sum.add (Sum.sub t.epoch old.sum) p.sum;
  }

let mem (a : Authorization.t) t = Int_set.mem a.id (part t a.server).ids

let mem_id id t =
  Server.Map.exists (fun _ p -> Int_set.mem id p.ids) t.parts

let push (a : Authorization.t) key m =
  Int_map.update key
    (fun rules -> Some (a :: Option.value ~default:[] rules))
    m

let pull (a : Authorization.t) key m =
  Int_map.update key
    (function
      | None -> None
      | Some rules ->
        (match
           List.filter (fun (r : Authorization.t) -> r.id <> a.id) rules
         with
         | [] -> None
         | rest -> Some rest))
    m

(* [index f a m] — [m] with [f a] applied under each attribute id of
   [a]. *)
let index f (a : Authorization.t) m =
  let m = ref m in
  Intern.Bits.iter (fun id -> m := f a id !m) a.attrs_bits;
  !m

let add (a : Authorization.t) t =
  let p = part t a.server in
  if Int_set.mem a.id p.ids then t
  else
    let d = digest a in
    with_part a.server
      {
        rules = Auth_set.add a p.rules;
        ids = Int_set.add a.id p.ids;
        size = p.size + 1;
        sum = Sum.add p.sum d;
        grants = push a a.path_id p.grants;
        by_attr = index push a p.by_attr;
      }
      t

let remove (a : Authorization.t) t =
  let p = part t a.server in
  if not (Int_set.mem a.id p.ids) then t
  else
    with_part a.server
      {
        rules = Auth_set.remove a p.rules;
        ids = Int_set.remove a.id p.ids;
        size = p.size - 1;
        sum = Sum.sub p.sum (digest a);
        grants = pull a a.path_id p.grants;
        by_attr = index pull a p.by_attr;
      }
      t

let of_list auths = List.fold_left (fun t a -> add a t) empty auths

let open_policy denials =
  { empty with negative = Auth_set.of_list denials; open_mode = true }

let is_open t = t.open_mode
let denials t = Auth_set.elements t.negative
let add_denial a t = { t with negative = Auth_set.add a t.negative }
let remove_denial a t = { t with negative = Auth_set.remove a t.negative }
let epoch t = Sum.to_hex t.epoch

let union a b =
  Server.Map.fold (fun _ p acc -> Auth_set.fold add p.rules acc) b.parts a

let authorizations t =
  List.concat_map
    (fun (_, p) -> Auth_set.elements p.rules)
    (Server.Map.bindings t.parts)

let view t s = Auth_set.elements (part t s).rules

let bucket p attr =
  match Int_map.find attr p.by_attr with
  | rules -> rules
  | exception Not_found -> []

let covering_entries t s = function
  | [] -> invalid_arg "Policy.covering_entries: empty attribute side"
  | probe :: _ as side ->
    List.filter
      (fun (r : Authorization.t) ->
        List.for_all (fun x -> Attribute.Set.mem x r.attrs) side)
      (bucket (part t s) (Intern.attr_id probe))

(* The chase's admission test, on bits and allocation-free: [-1], the
   id of a path nobody interned, is in no index. *)
let rec some_covers attrs = function
  | [] -> false
  | (r : Authorization.t) :: rest ->
    Intern.Bits.subset attrs r.attrs_bits || some_covers attrs rest

let part_admits p ~path ~attrs =
  match Int_map.find (Intern.find_path_bits path) p.grants with
  | rules -> some_covers attrs rules
  | exception Not_found -> false

let cardinality t = t.count

let servers t =
  Server.Map.fold
    (fun s _ acc -> Server.Set.add s acc)
    t.parts Server.Set.empty

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
  match Int_map.find path_id (part t s).grants with
  | rules -> rules
  | exception Not_found -> []

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

(* [can_view] for callers that already hold the interned path id and
   the visible set of a selection-free profile. Closed policies only:
   open-mode admission depends on the concrete join path, which this
   entry point does not see. *)
let admits t s ~path_id visible =
  List.exists (covers visible) (granted t ~path_id s)

let equal a b =
  Bool.equal a.open_mode b.open_mode
  && Server.Map.equal
       (fun p q -> Auth_set.equal p.rules q.rules)
       a.parts b.parts
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
