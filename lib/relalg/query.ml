type t = {
  select : Attribute.t list;
  base : Schema.t;
  joins : (Schema.t * Joinpath.Cond.t) list;
  where : Predicate.t;
}

type error =
  | Catalog of Catalog.error
  | Join_condition_unrelated of string * Joinpath.Cond.t
  | Select_out_of_scope of Attribute.t
  | Where_out_of_scope of Attribute.t
  | Empty_select

let pp_error ppf = function
  | Catalog e -> Catalog.pp_error ppf e
  | Join_condition_unrelated (rel, cond) ->
    Fmt.pf ppf "condition %a of JOIN %s does not relate %s to the FROM clause"
      Joinpath.Cond.pp cond rel rel
  | Select_out_of_scope a ->
    Fmt.pf ppf "selected attribute %a not in the FROM clause"
      Attribute.pp_qualified a
  | Where_out_of_scope a ->
    Fmt.pf ppf "WHERE attribute %a not in the FROM clause"
      Attribute.pp_qualified a
  | Empty_select -> Fmt.string ppf "empty SELECT clause"

let ( let* ) = Result.bind

let schema_of catalog name =
  Result.map_error (fun e -> Catalog e) (Catalog.relation catalog name)

(* Normalise a join condition so that its left side belongs to the
   accumulated left operand and its right side to the newly joined
   relation. *)
let orient_join ~left_attrs ~right_attrs rel cond =
  match
    Algebra.oriented_cond cond ~left_out:left_attrs ~right_out:right_attrs
  with
  | Some cond -> Ok cond
  | None -> Error (Join_condition_unrelated (rel, cond))

let make catalog ~select ~base ~joins ~where =
  let* () = if select = [] then Error Empty_select else Ok () in
  let* base_schema = schema_of catalog base in
  let* joins, scope =
    List.fold_left
      (fun acc (rel, cond) ->
        let* joins, left_attrs = acc in
        let* schema = schema_of catalog rel in
        let right_attrs = Schema.attribute_set schema in
        let* cond = orient_join ~left_attrs ~right_attrs rel cond in
        Ok
          ( joins @ [ (schema, cond) ],
            Attribute.Set.union left_attrs right_attrs ))
      (Ok ([], Schema.attribute_set base_schema))
      joins
  in
  let check_in_scope err a =
    if Attribute.Set.mem a scope then Ok () else Error (err a)
  in
  let* () =
    List.fold_left
      (fun acc a ->
        let* () = acc in
        check_in_scope (fun a -> Select_out_of_scope a) a)
      (Ok ()) select
  in
  let* () =
    Attribute.Set.fold
      (fun a acc ->
        let* () = acc in
        check_in_scope (fun a -> Where_out_of_scope a) a)
      (Predicate.attributes where)
      (Ok ())
  in
  Ok { select; base = base_schema; joins; where }

let relations t =
  Schema.name t.base :: List.map (fun (s, _) -> Schema.name s) t.joins

(* The relations, conditions, SELECT and WHERE stay those [make]
   checked, so only the spelling of the FROM clause needs checking: a
   permutation of its relations, each condition one of [t]'s (pair by
   pair) and sided with the prefix on the left. *)
let permute t ~base ~joins =
  let fail what = invalid_arg ("Query.permute: " ^ what) in
  let from = relations t in
  let names = Schema.name base :: List.map (fun (s, _) -> Schema.name s) joins in
  let rec distinct = function
    | [] -> true
    | n :: rest -> (not (List.mem n rest)) && distinct rest
  in
  if
    not
      (List.compare_lengths names from = 0
      && distinct names
      && List.for_all (fun n -> List.mem n from) names)
  then fail "not a permutation of the FROM clause";
  let pairs conds =
    List.concat_map (fun c -> Joinpath.Cond.pairs c) conds
  in
  let old_pairs = pairs (List.map snd t.joins)
  and new_pairs = pairs (List.map snd joins) in
  let same (a, b) (c, d) = Attribute.equal a c && Attribute.equal b d in
  if
    not
      (List.compare_lengths old_pairs new_pairs = 0
      && List.for_all (fun p -> List.exists (same p) old_pairs) new_pairs)
  then fail "conditions differ from the query's";
  ignore
    (List.fold_left
       (fun prefix (schema, cond) ->
         let fresh = Schema.name schema in
         if
           not
             (List.for_all
                (fun a -> List.mem (Attribute.relation a) prefix)
                (Joinpath.Cond.left cond)
             && List.for_all
                  (fun a -> String.equal (Attribute.relation a) fresh)
                  (Joinpath.Cond.right cond))
         then fail ("condition of JOIN " ^ fresh ^ " not sided prefix-first");
         fresh :: prefix)
       [ Schema.name base ] joins);
  { t with base; joins }

let join_path t = Joinpath.of_list (List.map snd t.joins)

(* Flatten a predicate into its top-level conjuncts. *)
let rec conjuncts = function
  | Predicate.True -> []
  | Predicate.And (p, q) -> conjuncts p @ conjuncts q
  | p -> [ p ]

let to_algebra t =
  let all_where = conjuncts t.where in
  (* A conjunct is pushed to the first FROM relation that covers it. *)
  let from_schemas = t.base :: List.map fst t.joins in
  let homes =
    List.map
      (fun pred ->
        let used = Predicate.attributes pred in
        ( pred,
          List.find_opt
            (fun s -> Attribute.Set.subset used (Schema.attribute_set s))
            from_schemas ))
      all_where
  in
  let top_where =
    List.filter_map
      (function p, None -> Some p | _, Some _ -> None)
      homes
  in
  let select_set = Attribute.Set.of_list t.select in
  let join_attrs =
    List.fold_left
      (fun acc (_, cond) ->
        Attribute.Set.union acc (Joinpath.Cond.attributes cond))
      Attribute.Set.empty t.joins
  in
  (* Attributes needed above the leaves: selected, joined on, or used
     by conjuncts evaluated at the top. *)
  let needed_above =
    Attribute.Set.union select_set
      (List.fold_left
         (fun acc p -> Attribute.Set.union acc (Predicate.attributes p))
         join_attrs top_where)
  in
  let leaf schema =
    let attrs = Schema.attribute_set schema in
    let pushed =
      List.filter_map
        (function
          | p, Some home when Schema.equal home schema -> Some p
          | _ -> None)
        homes
    in
    let keep = Attribute.Set.inter needed_above attrs in
    let base = Algebra.Relation schema in
    let with_select =
      match pushed with
      | [] -> base
      | ps -> Algebra.Select (Predicate.conj ps, base)
    in
    if Attribute.Set.equal keep attrs || Attribute.Set.is_empty keep then
      with_select
    else Algebra.Project (keep, with_select)
  in
  let joined =
    List.fold_left
      (fun acc (schema, cond) -> Algebra.Join (cond, acc, leaf schema))
      (leaf t.base) t.joins
  in
  let filtered =
    match top_where with
    | [] -> joined
    | ps -> Algebra.Select (Predicate.conj ps, joined)
  in
  let out = Algebra.output filtered in
  if Attribute.Set.equal select_set out then filtered
  else Algebra.Project (select_set, filtered)

let to_plan t = Plan.of_algebra (to_algebra t)

(* Canonical cache key. Two queries that parse to the same [t] up to
   the order of the SELECT list and of the WHERE conjuncts render to
   the same string: projection is a set in [to_algebra] and WHERE is a
   commutative conjunction, so both are sorted here; the FROM/JOIN
   order is kept (it fixes the left-deep plan shape) with each ON
   condition already orientation-normalised by [make]. Keyword case
   and whitespace never reach [t] at all.

   The key is the string [Fmt] renders: SELECT attributes dotted
   ([Attribute.pp_qualified]), sorted and deduplicated as strings, each
   join as [Joinpath.Cond.pp] and each conjunct as [Predicate.pp]
   (bare names), conjuncts sorted and deduplicated as strings. It is
   built in one buffer; only a WHERE of several conjuncts renders each
   one on its own, to sort them. *)

(* Byte [i] of [r ^ "." ^ n]. *)
let qualified_at r n i =
  let k = String.length r in
  if i < k then r.[i] else if i = k then '.' else n.[i - k - 1]

let rec compare_spelled ra na rb nb i =
  let la = String.length ra + 1 + String.length na
  and lb = String.length rb + 1 + String.length nb in
  if i = la || i = lb then Int.compare la lb
  else
    match Char.compare (qualified_at ra na i) (qualified_at rb nb i) with
    | 0 -> compare_spelled ra na rb nb (i + 1)
    | c -> c

let rec is_prefix s t i =
  i = String.length s || (s.[i] = t.[i] && is_prefix s t (i + 1))

(* [String.compare] of the two dotted names, without building them:
   within one relation the names decide, and across relations the
   relation names do unless one is a prefix of the other. *)
let compare_qualified a b =
  let ra = Attribute.relation a and rb = Attribute.relation b in
  let la = String.length ra and lb = String.length rb in
  if la = lb && String.equal ra rb then
    String.compare (Attribute.name a) (Attribute.name b)
  else if
    (la < lb && is_prefix ra rb 0) || (lb < la && is_prefix rb ra 0)
  then compare_spelled ra (Attribute.name a) rb (Attribute.name b) 0
  else String.compare ra rb

let add_value b = function
  | Value.Null -> Buffer.add_string b "NULL"
  | Value.Bool x -> Buffer.add_string b (string_of_bool x)
  | Value.Int i -> Buffer.add_string b (string_of_int i)
  | Value.Float f -> Printf.bprintf b "%g" f
  | Value.String s ->
    Buffer.add_char b '\'';
    Buffer.add_string b s;
    Buffer.add_char b '\''

let add_comparison b (c : Predicate.comparison) =
  Buffer.add_string b
    (match c with
     | Eq -> "="
     | Neq -> "<>"
     | Lt -> "<"
     | Le -> "<="
     | Gt -> ">"
     | Ge -> ">=")

let rec add_predicate b = function
  | Predicate.True -> Buffer.add_string b "TRUE"
  | Predicate.Cmp (a, c, op) ->
    Buffer.add_string b (Attribute.name a);
    Buffer.add_char b ' ';
    add_comparison b c;
    Buffer.add_char b ' ';
    (match op with
     | Predicate.Const v -> add_value b v
     | Predicate.Attr a' -> Buffer.add_string b (Attribute.name a'))
  | Predicate.And (p, q) -> add_binary b p " AND " q
  | Predicate.Or (p, q) -> add_binary b p " OR " q
  | Predicate.Not p ->
    Buffer.add_string b "NOT ";
    add_predicate b p

and add_binary b p op q =
  Buffer.add_char b '(';
  add_predicate b p;
  Buffer.add_string b op;
  add_predicate b q;
  Buffer.add_char b ')'

(* [Fmt.str "%s ON %a" name Joinpath.Cond.pp]. The condition is a
   [Format] box, and a box opened past the formatter's maximum
   indentation (column 68) starts a new line: so it does after the name
   of a relation longer than 64 bytes. *)
let add_join b (schema, cond) =
  let name = Schema.name schema in
  Buffer.add_string b " \xe2\x8b\x88 ";
  Buffer.add_string b name;
  Buffer.add_string b " ON ";
  if String.length name > 64 then Buffer.add_char b '\n';
  Buffer.add_string b "\xe2\x9f\xa8";
  (match (Joinpath.Cond.left cond, Joinpath.Cond.right cond) with
   | [ l ], [ r ] ->
     Buffer.add_string b (Attribute.name l);
     Buffer.add_string b ", ";
     Buffer.add_string b (Attribute.name r)
   | ls, rs ->
     List.iteri
       (fun i (l, r) ->
         if i > 0 then Buffer.add_string b ", ";
         Buffer.add_char b '(';
         Buffer.add_string b (Attribute.name l);
         Buffer.add_char b ',';
         Buffer.add_string b (Attribute.name r);
         Buffer.add_char b ')')
       (List.combine ls rs));
  Buffer.add_string b "\xe2\x9f\xa9"

let canonical t =
  let b = Buffer.create 256 in
  Buffer.add_string b "\xcf\x80{";
  let select = Array.of_list t.select in
  Array.stable_sort compare_qualified select;
  Array.iteri
    (fun i a ->
      if i = 0 || compare_qualified select.(i - 1) a <> 0 then begin
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Attribute.relation a);
        Buffer.add_char b '.';
        Buffer.add_string b (Attribute.name a)
      end)
    select;
  Buffer.add_string b "} ";
  Buffer.add_string b (Schema.name t.base);
  List.iter (add_join b) t.joins;
  (match conjuncts t.where with
   | [] -> ()
   | ps ->
     Buffer.add_string b " \xcf\x83{";
     (match ps with
      | [ p ] -> add_predicate b p
      | ps ->
        let one = Buffer.create 64 in
        let render p =
          Buffer.clear one;
          add_predicate one p;
          Buffer.contents one
        in
        List.iteri
          (fun i w ->
            if i > 0 then Buffer.add_string b " \xe2\x88\xa7 ";
            Buffer.add_string b w)
          (List.sort_uniq String.compare (List.map render ps)));
     Buffer.add_char b '}');
  Buffer.contents b

let pp ppf t =
  let pp_join ppf (schema, cond) =
    Fmt.pf ppf "JOIN %s ON %a" (Schema.name schema) Joinpath.Cond.pp_sql cond
  in
  Fmt.pf ppf "@[<hv>SELECT %a@ FROM %s%a%a@]"
    Fmt.(list ~sep:(any ", ") Attribute.pp)
    t.select (Schema.name t.base)
    Fmt.(list ~sep:nop (any " " ++ pp_join))
    t.joins
    (fun ppf -> function
      | Predicate.True -> ()
      | w -> Fmt.pf ppf "@ WHERE %a" Predicate.pp w)
    t.where

let to_string = Fmt.to_to_string pp
