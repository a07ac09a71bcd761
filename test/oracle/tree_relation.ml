(* The tree-set relation: the tuple-at-a-time operators over balanced-tree
   sets of attribute maps that {!Relalg.Relation} implemented before it
   became positional, kept verbatim below as its differential twin. *)

open Relalg

module Tuple_set = Set.Make (Tuple)

type t = {
  header : Attribute.t list;
  tuples : Tuple_set.t;
}

let check_tuple header_set tuple =
  if not (Attribute.Set.equal (Tuple.attributes tuple) header_set) then
    invalid_arg
      (Fmt.str "Relation.make: tuple %a does not match header %a" Tuple.pp
         tuple Attribute.Set.pp header_set)

let make header tuples =
  if header = [] then invalid_arg "Relation.make: empty header";
  let header_set = Attribute.Set.of_list header in
  if Attribute.Set.cardinal header_set <> List.length header then
    invalid_arg "Relation.make: duplicate attribute in header";
  List.iter (check_tuple header_set) tuples;
  { header; tuples = Tuple_set.of_list tuples }

let of_rows schema rows =
  let attrs = Schema.attributes schema in
  let arity = List.length attrs in
  let tuple_of_row row =
    if List.length row <> arity then
      invalid_arg
        (Fmt.str "Relation.of_rows: row of width %d for %s (arity %d)"
           (List.length row) (Schema.name schema) arity);
    Tuple.of_list (List.combine attrs row)
  in
  make attrs (List.map tuple_of_row rows)

let header t = t.header
let attribute_set t = Attribute.Set.of_list t.header
let tuples t = Tuple_set.elements t.tuples
let cardinality t = Tuple_set.cardinal t.tuples
let is_empty t = Tuple_set.is_empty t.tuples

let byte_size t =
  Tuple_set.fold (fun tu acc -> acc + Tuple.byte_width tu) t.tuples 0

let project attrs t =
  if Attribute.Set.is_empty attrs then
    invalid_arg "Relation.project: empty attribute set";
  let header_set = attribute_set t in
  if not (Attribute.Set.subset attrs header_set) then
    invalid_arg
      (Fmt.str "Relation.project: %a not within header %a" Attribute.Set.pp
         (Attribute.Set.diff attrs header_set)
         Attribute.Set.pp header_set);
  let header = List.filter (fun a -> Attribute.Set.mem a attrs) t.header in
  {
    header;
    tuples = Tuple_set.map (Tuple.project attrs) t.tuples;
  }

let select pred t =
  let header_set = attribute_set t in
  if not (Attribute.Set.subset (Predicate.attributes pred) header_set) then
    invalid_arg "Relation.select: predicate mentions unknown attributes";
  let keep tu = Predicate.eval (Tuple.find tu) pred in
  { t with tuples = Tuple_set.filter keep t.tuples }

(* Key of a tuple on a list of attributes, for hash joins. *)
let key_of attrs tuple = List.map (Tuple.find tuple) attrs

module Key_map = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

let check_side op side_name side_attrs rel =
  let header_set = attribute_set rel in
  List.iter
    (fun a ->
      if not (Attribute.Set.mem a header_set) then
        invalid_arg
          (Fmt.str "Relation.%s: %s attribute %a not in operand header" op
             side_name Attribute.pp_qualified a))
    side_attrs

let index_by attrs rel =
  Tuple_set.fold
    (fun tu acc ->
      let key = key_of attrs tu in
      let existing = Option.value ~default:[] (Key_map.find_opt key acc) in
      Key_map.add key (tu :: existing) acc)
    rel.tuples Key_map.empty

let equi_join cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "equi_join" "left" jl l;
  check_side "equi_join" "right" jr r;
  if not (Attribute.Set.disjoint (attribute_set l) (attribute_set r)) then
    invalid_arg "Relation.equi_join: operands share attributes";
  let index = index_by jr r in
  let add_matches ltu acc =
    match Key_map.find_opt (key_of jl ltu) index with
    | None -> acc
    | Some rtus ->
      List.fold_left
        (fun acc rtu -> Tuple_set.add (Tuple.merge ltu rtu) acc)
        acc rtus
  in
  {
    header = l.header @ r.header;
    tuples = Tuple_set.fold add_matches l.tuples Tuple_set.empty;
  }

let semi_join cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "semi_join" "left" jl l;
  check_side "semi_join" "right" jr r;
  let keys =
    Tuple_set.fold
      (fun tu acc -> Key_map.add (key_of jr tu) () acc)
      r.tuples Key_map.empty
  in
  let keep tu = Key_map.mem (key_of jl tu) keys in
  { l with tuples = Tuple_set.filter keep l.tuples }

let natural_join l r =
  let shared =
    Attribute.Set.inter (attribute_set l) (attribute_set r)
    |> Attribute.Set.elements
  in
  if shared = [] then
    invalid_arg "Relation.natural_join: headers share no attribute";
  let index = index_by shared r in
  let r_only =
    List.filter
      (fun a -> not (List.exists (Attribute.equal a) shared))
      r.header
  in
  let add_matches ltu acc =
    match Key_map.find_opt (key_of shared ltu) index with
    | None -> acc
    | Some rtus ->
      List.fold_left
        (fun acc rtu ->
          let extra = Tuple.project (Attribute.Set.of_list r_only) rtu in
          Tuple_set.add (Tuple.merge ltu extra) acc)
        acc rtus
  in
  {
    header = l.header @ r_only;
    tuples = Tuple_set.fold add_matches l.tuples Tuple_set.empty;
  }

let union a b =
  if not (Attribute.Set.equal (attribute_set a) (attribute_set b)) then
    invalid_arg "Relation.union: incompatible headers";
  { a with tuples = Tuple_set.union a.tuples b.tuples }

let equal a b =
  Attribute.Set.equal (attribute_set a) (attribute_set b)
  && Tuple_set.equal a.tuples b.tuples

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@]"
    Fmt.(list ~sep:(any " | ") Attribute.pp)
    t.header
    Fmt.(list ~sep:(any "@,") Tuple.pp)
    (tuples t)

let to_string = Fmt.to_to_string pp

(* ------------------------------------------------------------------ *)
(* Conversions and evaluation, for comparing against the positional
   relation. *)

let of_relation r = make (Relation.header r) (Relation.tuples r)
let to_relation t = Relation.make t.header (tuples t)

let eval ~lookup e =
  (match Algebra.validate e with
   | Ok () -> ()
   | Error err ->
     invalid_arg (Fmt.str "Tree_relation.eval: %a" Algebra.pp_error err));
  let rec go = function
    | Algebra.Relation schema -> lookup schema
    | Algebra.Project (attrs, e) -> project attrs (go e)
    | Algebra.Select (pred, e) -> select pred (go e)
    | Algebra.Join (cond, l, r) ->
      let lv = go l and rv = go r in
      let cond =
        match
          Algebra.oriented_cond cond ~left_out:(Algebra.output l)
            ~right_out:(Algebra.output r)
        with
        | Some c -> c
        | None -> assert false (* validated above *)
      in
      equi_join cond lv rv
  in
  go e
