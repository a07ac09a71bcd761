type t =
  | Relation of Schema.t
  | Project of Attribute.Set.t * t
  | Select of Predicate.t * t
  | Join of Joinpath.Cond.t * t * t

type error =
  | Projection_out_of_scope of Attribute.Set.t
  | Selection_out_of_scope of Attribute.Set.t
  | Join_attributes_misplaced of Joinpath.Cond.t
  | Overlapping_operands of Attribute.Set.t

let pp_error ppf = function
  | Projection_out_of_scope attrs ->
    Fmt.pf ppf "projection on attributes %a not produced by the operand"
      Attribute.Set.pp attrs
  | Selection_out_of_scope attrs ->
    Fmt.pf ppf "selection on attributes %a not produced by the operand"
      Attribute.Set.pp attrs
  | Join_attributes_misplaced cond ->
    Fmt.pf ppf "join condition %a does not match its operands"
      Joinpath.Cond.pp cond
  | Overlapping_operands attrs ->
    Fmt.pf ppf "join operands share attributes %a" Attribute.Set.pp attrs

let rec output = function
  | Relation schema -> Schema.attribute_set schema
  | Project (attrs, _) -> attrs
  | Select (_, e) -> output e
  | Join (_, l, r) -> Attribute.Set.union (output l) (output r)

let rec relations = function
  | Relation schema -> [ Schema.name schema ]
  | Project (_, e) | Select (_, e) -> relations e
  | Join (_, l, r) -> relations l @ relations r

(* A join condition is well-sided when its left attributes are produced
   by the left operand and its right attributes by the right one; since
   paths are orientation-insensitive, we accept the flipped spelling and
   normalise it. *)
let oriented_cond cond ~left_out ~right_out =
  let sided c =
    List.for_all (fun a -> Attribute.Set.mem a left_out) (Joinpath.Cond.left c)
    && List.for_all
         (fun a -> Attribute.Set.mem a right_out)
         (Joinpath.Cond.right c)
  in
  if sided cond then Some cond
  else
    let flipped = Joinpath.Cond.flip cond in
    if sided flipped then Some flipped else None

(* One bottom-up pass computes each node's output once. A sub-tree
   already sided comes back physically unchanged. *)
let sided e =
  let ( let* ) = Result.bind in
  let rec go e =
    match e with
    | Relation schema -> Ok (e, Schema.attribute_set schema)
    | Project (attrs, c) ->
      let* c', out = go c in
      if Attribute.Set.subset attrs out then
        Ok ((if c' == c then e else Project (attrs, c')), attrs)
      else Error (Projection_out_of_scope (Attribute.Set.diff attrs out))
    | Select (pred, c) ->
      let* c', out = go c in
      let used = Predicate.attributes pred in
      if Attribute.Set.subset used out then
        Ok ((if c' == c then e else Select (pred, c')), out)
      else Error (Selection_out_of_scope (Attribute.Set.diff used out))
    | Join (cond, l, r) ->
      let* l', left_out = go l in
      let* r', right_out = go r in
      (* [Set.inter] and [Set.disjoint] both allocate; the overlap is
         built only for the error. *)
      if Attribute.Set.exists (fun a -> Attribute.Set.mem a right_out) left_out
      then
        Error (Overlapping_operands (Attribute.Set.inter left_out right_out))
      else (
        match oriented_cond cond ~left_out ~right_out with
        | Some c ->
          Ok
            ( (if c == cond && l' == l && r' == r then e
               else Join (c, l', r')),
              Attribute.Set.union left_out right_out )
        | None -> Error (Join_attributes_misplaced cond))
  in
  Result.map fst (go e)

let validate e = Result.map ignore (sided e)

let eval ?(executor = (module Exec.Reference : Exec.S)) ~lookup e =
  let module E = (val executor : Exec.S) in
  let e =
    match sided e with
    | Ok e -> e
    | Error err -> invalid_arg (Fmt.str "Algebra.eval: %a" pp_error err)
  in
  let rec go = function
    | Relation schema -> lookup schema
    | Project (attrs, e) -> E.project attrs (go e)
    | Select (pred, e) -> E.select pred (go e)
    | Join (cond, l, r) ->
      let lv = go l and rv = go r in
      E.equi_join cond lv rv
  in
  go e

let rec join_count = function
  | Relation _ -> 0
  | Project (_, e) | Select (_, e) -> join_count e
  | Join (_, l, r) -> 1 + join_count l + join_count r

let rec size = function
  | Relation _ -> 1
  | Project (_, e) | Select (_, e) -> 1 + size e
  | Join (_, l, r) -> 1 + size l + size r

let rec pp ppf = function
  | Relation schema -> Fmt.pf ppf "%s" (Schema.name schema)
  | Project (attrs, e) ->
    Fmt.pf ppf "@[<v 2>\xcf\x80 %a@,%a@]" Attribute.Set.pp attrs pp e
  | Select (pred, e) ->
    Fmt.pf ppf "@[<v 2>\xcf\x83 %a@,%a@]" Predicate.pp pred pp e
  | Join (cond, l, r) ->
    Fmt.pf ppf "@[<v 2>\xe2\x8b\x88 %a@,%a@,%a@]" Joinpath.Cond.pp_sql cond pp
      l pp r

let to_string = Fmt.to_to_string pp
