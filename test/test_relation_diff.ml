(* The positional relation against its tree-set twin
   (Oracle.Tree_relation, the tuple-at-a-time operators over
   balanced-tree sets). On generated relations of 0-40 rows and 1-4
   columns — Ints, Floats equal to some Int, Strings and NULLs, with
   duplicate rows — every operator must give the twin's header, tuples
   in the twin's order, cardinality and byte size, or raise the twin's
   Invalid_argument message.

   Row order is pinned apart from the twin, which has none: every
   operator's [Relation.rows] must equal a nested-loop, first-occurrence
   reference written here, row for row and value for value (an Int
   never passes for its Float twin), on those relations and on ones of
   200-3,000 rows whose keys form long chains or are strided by powers
   of two. *)

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

let gen_spec ?(rows = gen_rows) attrs =
  QCheck.Gen.(
    let* header = gen_header attrs in
    let* rows = rows header in
    return { header; rows })

(* The same attribute set in another order, with fresh rows. *)
let gen_permuted ?(rows = gen_rows) spec =
  QCheck.Gen.(
    let* header = shuffle_l spec.header in
    let* rows = rows header in
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

(* A natural join's right operand: some of [l]'s attributes (possibly
   none) and some of its own (possibly none, but never no attribute). *)
let gen_natural_right ?(rows = gen_rows) l =
  QCheck.Gen.(
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
    let* rows = rows header in
    return { header; rows })

let prop_natural_join =
  let gen =
    QCheck.Gen.(
      let* l = gen_spec l_attrs in
      let* r = gen_natural_right l in
      return (l, r))
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
let gen_second ?(rows = gen_rows) a =
  let open QCheck.Gen in
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
  frequency
    [ (4, gen_permuted ~rows a); (4, same_rows); (1, gen_spec ~rows r_attrs) ]

let gen_pair =
  QCheck.Gen.(
    let* a = gen_spec l_attrs in
    let* b = gen_second a in
    return (a, b))

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
(* Row order: every operator's rows against a reference.               *)

(* One application of an operator to generated operands. *)
type case =
  | Make of spec
  | Project of spec * Attribute.Set.t
  | Select of spec * Predicate.t
  | Equi_join of spec * spec * Joinpath.Cond.t
  | Semi_join of spec * spec * Joinpath.Cond.t
  | Natural_join of spec * spec
  | Union of spec * spec
  | Equal of spec * spec

let arrays s = Array.of_list (List.map Array.of_list s.rows)

let position header a =
  let rec from i = function
    | b :: rest -> if Attribute.equal a b then i else from (i + 1) rest
    | [] -> raise Not_found
  in
  from 0 header

let positions header attrs = Array.of_list (List.map (position header) attrs)
let at pos row = Array.map (fun p -> row.(p)) pos

let row_equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

(* Rows in lexicographic Value.compare order: the reference's sets,
   which never hash. *)
module Row_set = Set.Make (struct
  type t = Value.t array

  let compare a b =
    let n = Array.length a in
    let rec from i =
      if i = n then 0
      else match Value.compare a.(i) b.(i) with 0 -> from (i + 1) | c -> c
    in
    match Int.compare n (Array.length b) with 0 -> from 0 | c -> c
end)

(* The rows no earlier row equals, in order. *)
let first_occurrences rows =
  let seen = ref Row_set.empty in
  Array.of_list
    (List.filter
       (fun row ->
         (not (Row_set.mem row !seen))
         && begin
           seen := Row_set.add row !seen;
           true
         end)
       (Array.to_list rows))

(* For each row of [l], every row of [r] whose values at [rpos] equal
   its at [lpos], in [r]'s order: [emit lrow rrow]. *)
let nested_loop l lpos r rpos emit =
  let rkeys = Array.map (at rpos) r in
  let out = ref [] in
  Array.iter
    (fun lrow ->
      let key = at lpos lrow in
      Array.iteri
        (fun j rrow ->
          if row_equal key rkeys.(j) then out := emit lrow rrow :: !out)
        r)
    l;
  Array.of_list (List.rev !out)

(* [b]'s rows in [a]'s header order. *)
let aligned a b =
  Array.map (at (positions b.header a.header)) (Relation.rows (pos b))

(* The same rows in the same order, and the same value in each place:
   Value.equal, and the same constructor. *)
let same_value x y =
  String.equal (Value.type_name x) (Value.type_name y) && Value.equal x y

let same_rows a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y && Array.for_all2 same_value x y)
       a b

(* The operator's rows against the reference's; an operand the operator
   rejects is the twin properties' business. *)
let rows_agree op expected =
  match op () with
  | exception Invalid_argument _ -> true
  | rel -> same_rows (Relation.rows rel) (expected ())

let case_ok = function
  | Make s ->
    rows_agree (fun () -> pos s) (fun () -> first_occurrences (arrays s))
  | Project (s, attrs) ->
    rows_agree
      (fun () -> Relation.project attrs (pos s))
      (fun () ->
        let p =
          positions s.header
            (List.filter (fun a -> Attribute.Set.mem a attrs) s.header)
        in
        first_occurrences (Array.map (at p) (Relation.rows (pos s))))
  | Select (s, pred) ->
    rows_agree
      (fun () -> Relation.select pred (pos s))
      (fun () ->
        let keep row =
          Predicate.eval (fun a -> row.(position s.header a)) pred
        in
        Array.of_list
          (List.filter keep (Array.to_list (Relation.rows (pos s)))))
  | Equi_join (l, r, cond) ->
    rows_agree
      (fun () -> Relation.equi_join cond (pos l) (pos r))
      (fun () ->
        nested_loop (Relation.rows (pos l))
          (positions l.header (Joinpath.Cond.left cond))
          (Relation.rows (pos r))
          (positions r.header (Joinpath.Cond.right cond))
          Array.append)
  | Semi_join (l, r, cond) ->
    rows_agree
      (fun () -> Relation.semi_join cond (pos l) (pos r))
      (fun () ->
        let lpos = positions l.header (Joinpath.Cond.left cond)
        and rpos = positions r.header (Joinpath.Cond.right cond) in
        let rkeys = Array.map (at rpos) (Relation.rows (pos r)) in
        let matched lrow = Array.exists (row_equal (at lpos lrow)) rkeys in
        Array.of_list
          (List.filter matched (Array.to_list (Relation.rows (pos l)))))
  | Natural_join (l, r) ->
    rows_agree
      (fun () -> Relation.natural_join (pos l) (pos r))
      (fun () ->
        let shared = List.filter (fun a -> List.mem a r.header) l.header
        and r_only =
          List.filter (fun a -> not (List.mem a l.header)) r.header
        in
        let extra = positions r.header r_only in
        nested_loop (Relation.rows (pos l)) (positions l.header shared)
          (Relation.rows (pos r)) (positions r.header shared)
          (fun lrow rrow -> Array.append lrow (at extra rrow)))
  | Union (a, b) ->
    rows_agree
      (fun () -> Relation.union (pos a) (pos b))
      (fun () ->
        first_occurrences
          (Array.append (Relation.rows (pos a)) (aligned a b)))
  | Equal (a, b) -> (
    match Relation.equal (pos a) (pos b) with
    | exception Invalid_argument _ -> true
    | eq ->
      let sa = Attribute.Set.of_list a.header
      and sb = Attribute.Set.of_list b.header in
      let set rows = Row_set.of_list (Array.to_list rows) in
      Bool.equal eq
        (Attribute.Set.equal sa sb
        && Row_set.equal (set (Relation.rows (pos a))) (set (aligned a b))))

let case_name = function
  | Make _ -> "make"
  | Project _ -> "project"
  | Select _ -> "select"
  | Equi_join _ -> "equi_join"
  | Semi_join _ -> "semi_join"
  | Natural_join _ -> "natural_join"
  | Union _ -> "union"
  | Equal _ -> "equal"

let operands = function
  | Make s | Project (s, _) | Select (s, _) -> [ s ]
  | Equi_join (l, r, _) | Semi_join (l, r, _) | Natural_join (l, r) ->
    [ l; r ]
  | Union (a, b) | Equal (a, b) -> [ a; b ]

(* Small cases in full; large ones by their operands' sizes. *)
let pp_case ~full ppf case =
  let pp_operand ppf s =
    if full then pp_spec ppf s
    else
      Fmt.pf ppf "[%a] %d rows"
        Fmt.(list ~sep:comma Attribute.pp_qualified)
        s.header (List.length s.rows)
  in
  Fmt.pf ppf "%s@ %a" (case_name case)
    Fmt.(list ~sep:(any "@ AND ") pp_operand)
    (operands case)

(* One operator's case, its operands drawn by [rows]; a join's left
   operand by [probe]. *)
let gen_case ~rows ~probe =
  let open QCheck.Gen in
  let spec = gen_spec ~rows l_attrs and left = gen_spec ~rows:probe l_attrs in
  let join case =
    let* l = left in
    let* r = gen_spec ~rows r_attrs in
    let* cond = gen_cond l.header r.header in
    return (case l r cond)
  in
  let pair case =
    let* a = spec in
    let* b = gen_second ~rows a in
    return (case a b)
  in
  oneof
    [
      map (fun s -> Make s) spec;
      (let* s = spec in
       let* keep = list_repeat (List.length s.header) bool in
       let kept = List.filteri (fun i _ -> List.nth keep i) s.header in
       let kept = if kept = [] then s.header else kept in
       return (Project (s, Attribute.Set.of_list kept)));
      (let* s = spec in
       let* p = gen_pred s.header in
       return (Select (s, p)));
      join (fun l r cond -> Equi_join (l, r, cond));
      join (fun l r cond -> Semi_join (l, r, cond));
      (let* l = left in
       let* r = gen_natural_right ~rows l in
       return (Natural_join (l, r)));
      pair (fun a b -> Union (a, b));
      pair (fun a b -> Equal (a, b));
    ]

(* Every value of a large relation is a key: from a tiny domain (0-3:
   long chains of equal keys), or an Int strided by [stride] (up to
   4,096 keys a column, at loads up to 2/3, so some probes run past
   the index's last slot and wrap); with Float twins and NULLs. *)
let gen_big_value stride =
  QCheck.Gen.(
    let key =
      if stride = 0 then 0 -- 3 else map (fun i -> i * stride) (0 -- 4095)
    in
    frequency
      [
        (6, map (fun i -> Value.Int i) key);
        (2, map (fun i -> Value.Float (float_of_int i)) key);
        (1, return Value.Null);
      ])

let big_rows stride size header =
  QCheck.Gen.(
    list_size size (list_repeat (List.length header) (gen_big_value stride)))

(* 200-3,000 rows. A join's left operand, which probes the right's
   chains, has at most 300 (100 over a tiny domain, so the output stays
   below 10^5 rows): the reference's nested loop is quadratic. *)
let gen_big_case =
  QCheck.Gen.(
    let* stride = oneofl [ 0; 1 lsl 10; 1 lsl 16; 1 lsl 32 ] in
    gen_case
      ~rows:(big_rows stride (200 -- 3000))
      ~probe:(big_rows stride (0 -- if stride = 0 then 100 else 300)))

let prop_row_order =
  test "every operator's rows match the nested-loop reference"
    (gen_case ~rows:gen_rows ~probe:gen_rows)
    (pp_case ~full:true) case_ok

let prop_row_order_big =
  Helpers.qcheck
    (QCheck.Test.make
       ~name:
         "every operator's rows match the nested-loop reference (200-3,000 \
          rows, chains and strided keys)"
       ~count:64
       (QCheck.make
          ~print:(Fmt.to_to_string (pp_case ~full:false))
          gen_big_case)
       case_ok)

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
    prop_row_order;
    prop_row_order_big;
    c "twins keep the first occurrence" `Quick test_first_occurrence;
  ]
