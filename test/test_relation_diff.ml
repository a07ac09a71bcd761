(* The positional relation against its tree-set twin
   (Oracle.Tree_relation, the tuple-at-a-time operators over
   balanced-tree sets). On generated relations of 0-40 rows and 1-4
   columns — Ints, Floats equal to some Int, Strings and NULLs, with
   duplicate rows — every operator must give the twin's header, tuples
   in the twin's order, cardinality and byte size, or raise the twin's
   Invalid_argument message. *)

open Relalg
module T = Oracle.Tree_relation

let c = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Generators.                                                         *)

(* L's attributes, R's (disjoint from L's) and one foreign attribute no
   generated relation carries. *)
let l_attrs = List.map (Attribute.make ~relation:"L") [ "A"; "B"; "C"; "D" ]
let r_attrs = List.map (Attribute.make ~relation:"R") [ "E"; "F"; "G"; "H" ]
let foreign = Attribute.make ~relation:"Z" "Q"

(* Few distinct values, so rows and keys collide; [Float k.] is the
   twin of [Int k]. *)
let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Value.Int i) (0 -- 3));
        (2, map (fun i -> Value.Float (float_of_int i)) (0 -- 3));
        (2, oneofl [ Value.String "a"; Value.String "b" ]);
        (1, return Value.Null);
      ])

(* The row with its Ints made Floats: one row under Value.equal. *)
let twin row =
  List.map
    (function Value.Int i -> Value.Float (float_of_int i) | v -> v)
    row

(* 0-40 rows over [header], a few of them repeated verbatim or as their
   twin. *)
let gen_rows header =
  let open QCheck.Gen in
  let width = List.length header in
  let* rows = list_size (0 -- 40) (list_repeat width gen_value) in
  let* extra =
    if rows = [] then return []
    else
      list_size (0 -- 4)
        (let* row = oneofl rows in
         let* as_twin = bool in
         return (if as_twin then twin row else row))
  in
  shuffle_l (rows @ extra)

let gen_header attrs =
  QCheck.Gen.(
    let* n = 1 -- List.length attrs in
    shuffle_l (List.filteri (fun i _ -> i < n) attrs))

type spec = { header : Attribute.t list; rows : Value.t list list }

let gen_spec attrs =
  QCheck.Gen.(
    let* header = gen_header attrs in
    let* rows = gen_rows header in
    return { header; rows })

(* The same attribute set in another order, with fresh rows. *)
let gen_permuted spec =
  QCheck.Gen.(
    let* header = shuffle_l spec.header in
    let* rows = gen_rows header in
    return { header; rows })

let pp_spec ppf s =
  Fmt.pf ppf "[%a] %a"
    Fmt.(list ~sep:comma Attribute.pp_qualified)
    s.header
    Fmt.(list ~sep:sp (brackets (list ~sep:comma Value.pp)))
    s.rows

let tuples_of s =
  List.map (fun row -> Tuple.of_list (List.combine s.header row)) s.rows

let pos s = Relation.make s.header (tuples_of s)
let tree s = T.make s.header (tuples_of s)

(* Predicates over [header], now and then naming [foreign]. *)
let gen_pred header =
  let open QCheck.Gen in
  let attr = frequency [ (12, oneofl header); (1, return foreign) ] in
  let atom =
    let* a = attr
    and* cmp = oneofl Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ] in
    let* operand =
      frequency
        [
          (3, map (fun v -> Predicate.Const v) gen_value);
          (1, map (fun b -> Predicate.Attr b) attr);
        ]
    in
    return (Predicate.Cmp (a, cmp, operand))
  in
  let node self n =
    if n = 0 then frequency [ (6, atom); (1, return Predicate.True) ]
    else
      let half = self (n / 2) in
      frequency
        [
          (2, atom);
          (1, map2 (fun p q -> Predicate.And (p, q)) half half);
          (1, map2 (fun p q -> Predicate.Or (p, q)) half half);
          (1, map (fun p -> Predicate.Not p) (self (n - 1)));
        ]
  in
  sized_size (0 -- 3) (fix node)

(* A condition of one or two pairs between [left] and [right], now and
   then mis-sided. *)
let gen_cond left right =
  let open QCheck.Gen in
  let* n = frequency [ (3, return 1); (2, return 2) ] in
  let n = min n (min (List.length left) (List.length right)) in
  let* ls = shuffle_l left and* rs = shuffle_l right in
  let take l = List.filteri (fun i _ -> i < n) l in
  let* missided = frequency [ (8, return false); (1, return true) ] in
  let ls, rs = if missided then (take rs, take ls) else (take ls, take rs) in
  (* Over one header, two pairs can be one equality spelled twice. *)
  return
    (try Joinpath.Cond.make ~left:ls ~right:rs
     with Invalid_argument _ -> Joinpath.Cond.eq (List.hd ls) (List.hd rs))

(* ------------------------------------------------------------------ *)
(* Agreement.                                                          *)

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_rel p t =
  List.equal Attribute.equal (Relation.header p) (T.header t)
  && List.equal Tuple.equal (Relation.tuples p) (T.tuples t)
  && Relation.cardinality p = T.cardinality t
  && Relation.byte_size p = T.byte_size t

let agree same pf tf =
  match outcome pf, outcome tf with
  | Ok p, Ok t -> same p t
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let agree_rel pf tf = agree same_rel pf tf

let test name gen print prop =
  Helpers.qcheck
    (QCheck.Test.make ~name ~count:300
       (QCheck.make ~print:(Fmt.to_to_string print) gen)
       prop)

(* Now and then [true], to steer a generator off its happy path. *)
let rarely = QCheck.Gen.(frequency [ (8, return false); (1, return true) ])

let pp_rows = Fmt.(list ~sep:sp (brackets (list ~sep:comma Value.pp)))

(* ------------------------------------------------------------------ *)
(* Properties, one per operator.                                       *)

let prop_make =
  (* Now and then a tuple binds the foreign attribute, or the header
     repeats an attribute or is empty. *)
  let gen =
    QCheck.Gen.(
      let* s = gen_spec l_attrs in
      let* header =
        frequency
          [
            (8, return s.header);
            (1, return []);
            (1, return (s.header @ [ List.hd s.header ]));
          ]
      in
      let* stray = rarely in
      let tuples =
        match tuples_of s with
        | first :: _ as tuples when stray ->
          Tuple.add foreign Value.Null first :: tuples
        | tuples -> tuples
      in
      return (header, s, tuples))
  in
  test "make agrees with the twin" gen
    (fun ppf (_, s, _) -> pp_spec ppf s)
    (fun (header, _, tuples) ->
      agree_rel
        (fun () -> Relation.make header tuples)
        (fun () -> T.make header tuples))

let prop_of_rows =
  let schema = Schema.make "L" ~key:[] [ "A"; "B"; "C" ] in
  let gen =
    QCheck.Gen.(
      let* rows = gen_rows (Schema.attributes schema) in
      let* ragged = rarely in
      return (if ragged then [ Value.Int 0 ] :: rows else rows))
  in
  test "of_rows agrees with the twin" gen pp_rows (fun rows ->
      agree_rel
        (fun () -> Relation.of_rows schema rows)
        (fun () -> T.of_rows schema rows))

let prop_project =
  let gen =
    QCheck.Gen.(
      let* s = gen_spec l_attrs in
      let* keep = list_repeat (List.length s.header) bool in
      let* stray = rarely in
      let attrs =
        List.filteri (fun i _ -> List.nth keep i) s.header
        @ if stray then [ foreign ] else []
      in
      return (s, Attribute.Set.of_list attrs))
  in
  test "project agrees with the twin" gen
    (fun ppf (s, a) -> Fmt.pf ppf "%a on %a" pp_spec s Attribute.Set.pp a)
    (fun (s, attrs) ->
      agree_rel
        (fun () -> Relation.project attrs (pos s))
        (fun () -> T.project attrs (tree s)))

let prop_select =
  let gen =
    QCheck.Gen.(
      let* s = gen_spec l_attrs in
      let* p = gen_pred s.header in
      return (s, p))
  in
  test "select agrees with the twin (Not, NULL-bearing atoms)" gen
    (fun ppf (s, p) -> Fmt.pf ppf "%a where %a" pp_spec s Predicate.pp p)
    (fun (s, p) ->
      agree_rel
        (fun () -> Relation.select p (pos s))
        (fun () -> T.select p (tree s)))

(* Two operands and a condition: L and R are disjoint, and now and
   then the right operand is over L's attributes too (overlapping
   headers). *)
let gen_join_operands =
  QCheck.Gen.(
    let* l = gen_spec l_attrs in
    let* self = rarely in
    let* r = if self then gen_permuted l else gen_spec r_attrs in
    let* cond = gen_cond l.header r.header in
    return (l, r, cond))

let print_join ppf (l, r, cond) =
  Fmt.pf ppf "%a@ ON %a@ WITH %a" pp_spec l Joinpath.Cond.pp cond pp_spec r

let prop_equi_join =
  test "equi_join agrees with the twin (multi-attribute, NULL keys)"
    gen_join_operands print_join (fun (l, r, cond) ->
      agree_rel
        (fun () -> Relation.equi_join cond (pos l) (pos r))
        (fun () -> T.equi_join cond (tree l) (tree r)))

let prop_semi_join =
  test "semi_join agrees with the twin (multi-attribute, NULL keys)"
    gen_join_operands print_join (fun (l, r, cond) ->
      agree_rel
        (fun () -> Relation.semi_join cond (pos l) (pos r))
        (fun () -> T.semi_join cond (tree l) (tree r)))

let prop_natural_join =
  (* The right operand takes some of L's attributes (possibly none)
     and some of its own (possibly none, but never no attribute). *)
  let gen =
    QCheck.Gen.(
      let* l = gen_spec l_attrs in
      let* shared = list_repeat (List.length l.header) bool in
      let shared = List.filteri (fun i _ -> List.nth shared i) l.header in
      let* own = gen_header r_attrs in
      let* no_own = frequency [ (3, return false); (1, return true) ] in
      let header =
        match shared, no_own with
        | _ :: _, true -> shared
        | _ -> shared @ own
      in
      let* header = shuffle_l header in
      let* rows = gen_rows header in
      return (l, { header; rows }))
  in
  test "natural_join agrees with the twin" gen
    (fun ppf (l, r) -> Fmt.pf ppf "%a@ NATURAL %a" pp_spec l pp_spec r)
    (fun (l, r) ->
      agree_rel
        (fun () -> Relation.natural_join (pos l) (pos r))
        (fun () -> T.natural_join (tree l) (tree r)))

(* A second operand over the same attributes in another order — half
   the time holding the first's rows, reordered and maybe as their
   twins, so equal pairs occur — or, now and then, over other
   attributes. *)
let gen_pair =
  let open QCheck.Gen in
  let* a = gen_spec l_attrs in
  let same_rows =
    let* header = shuffle_l a.header in
    let index x =
      let rec from i = function
        | y :: ys -> if Attribute.equal x y then i else from (i + 1) ys
        | [] -> assert false
      in
      from 0 a.header
    in
    let perm = List.map index header in
    let* rows = shuffle_l a.rows in
    let rows = List.map (fun row -> List.map (List.nth row) perm) rows in
    let* as_twins = rarely in
    return { header; rows = (if as_twins then List.map twin rows else rows) }
  in
  let* b =
    frequency [ (4, gen_permuted a); (4, same_rows); (1, gen_spec r_attrs) ]
  in
  return (a, b)

let print_pair ppf (a, b) = Fmt.pf ppf "%a@ AND %a" pp_spec a pp_spec b

let prop_union =
  test "union agrees with the twin (permuted headers)" gen_pair print_pair
    (fun (a, b) ->
      agree_rel
        (fun () -> Relation.union (pos a) (pos b))
        (fun () -> T.union (tree a) (tree b)))

let prop_equal =
  test "equal agrees with the twin (permuted headers)" gen_pair print_pair
    (fun (a, b) ->
      agree Bool.equal
        (fun () -> Relation.equal (pos a) (pos b))
        (fun () -> T.equal (tree a) (tree b)))

(* ------------------------------------------------------------------ *)
(* Representatives: which of two Value.equal twins survives.           *)

let kinds rel attr =
  List.map
    (fun tu -> Value.type_name (Tuple.find tu attr))
    (Relation.tuples rel)

let test_first_occurrence () =
  let schema = Schema.make "T" ~key:[] [ "X" ] in
  let x = Attribute.make ~relation:"T" "X" in
  let of_values (vs : Value.t list) =
    Relation.of_rows schema (List.map (fun v -> [ v ]) vs)
  in
  let kinds_of vs = kinds (of_values vs) x in
  check Alcotest.(list string) "Int first" [ "int" ]
    (kinds_of [ Int 3; Float 3. ]);
  check Alcotest.(list string) "Float first" [ "float" ]
    (kinds_of [ Float 3.; Int 3 ]);
  (* Past five tuples the tree set sorted its input before collapsing
     twins, and kept [Float 3.] here; the first occurrence survives at
     any size. *)
  check Alcotest.(list string) "Int first, six rows"
    [ "int"; "int"; "int"; "int"; "int" ]
    (kinds_of [ Int 3; Float 3.; Int 1; Int 2; Int 4; Int 5 ]);
  (* Projection keeps the first row of each class, in row order. *)
  let wide = Schema.make "W" ~key:[] [ "K"; "V" ] in
  let v = Attribute.make ~relation:"W" "V" in
  let projected (vs : Value.t list) =
    Relation.project (Attribute.Set.singleton v)
      (Relation.of_rows wide (List.mapi (fun i x -> [ Value.Int i; x ]) vs))
  in
  check Alcotest.(list string) "project keeps the first" [ "float" ]
    (kinds (projected [ Float 3.; Int 3 ]) v);
  (* Union keeps the left operand's row. *)
  check Alcotest.(list string) "union keeps the left" [ "int" ]
    (kinds (Relation.union (of_values [ Int 3 ]) (of_values [ Float 3. ])) x)

let suite =
  [
    prop_make;
    prop_of_rows;
    prop_project;
    prop_select;
    prop_equi_join;
    prop_semi_join;
    prop_natural_join;
    prop_union;
    prop_equal;
    c "twins keep the first occurrence" `Quick test_first_occurrence;
  ]
