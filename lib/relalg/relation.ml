(* A relation is a header and an array of positional rows: [rows.(i).(j)]
   is the value of [attrs.(j)] in row [i]. Rows are distinct under
   [Value.equal]. Every operator keeps that invariant: [select] and
   [semi_join] keep a subset of their operand's rows, the joins pair
   distinct rows with distinct rows, and only [project], [union] and
   the constructors, which can meet a row twice, deduplicate. *)

type t = {
  header : Attribute.t list;
  attrs : Attribute.t array; (* the header, positionally *)
  attr_set : Attribute.Set.t;
  rows : Value.t array array;
}

(* Rows, and join keys cut from rows, hashed in [Value.equal] classes:
   [Int 3] and [Float 3.] are one key, and so are two NULLs. *)
module Row_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    let n = Array.length a in
    let rec from i = i = n || (Value.equal a.(i) b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let hash r =
    let h = ref 0 in
    for i = 0 to Array.length r - 1 do
      h := (!h * 65599) + Value.hash r.(i)
    done;
    !h land max_int
end)

(* [filter keep rows] keeps the rows [keep] accepts, in order; [rows]
   itself when it accepts all. *)
let filter keep rows =
  let n = Array.length rows in
  let out = Array.make n [||] in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    if keep row then begin
      out.(!m) <- row;
      incr m
    end
  done;
  if !m = n then rows else Array.sub out 0 !m

(* First occurrence of each row. *)
let distinct rows =
  if Array.length rows < 2 then rows
  else
    let seen = Row_tbl.create (Array.length rows) in
    let fresh row =
      if Row_tbl.mem seen row then false
      else begin
        Row_tbl.add seen row ();
        true
      end
    in
    filter fresh rows

(* A relation over a header already checked, from distinct rows. *)
let build header attr_set rows =
  { header; attrs = Array.of_list header; attr_set; rows }

let with_rows header rows = build header (Attribute.Set.of_list header) rows

let check_header op header =
  if header = [] then
    invalid_arg (Printf.sprintf "Relation.%s: empty header" op);
  let attr_set = Attribute.Set.of_list header in
  if Attribute.Set.cardinal attr_set <> List.length header then
    invalid_arg
      (Printf.sprintf "Relation.%s: duplicate attribute in header" op);
  attr_set

let check_tuple header_set tuple =
  if not (Attribute.Set.equal (Tuple.attributes tuple) header_set) then
    invalid_arg
      (Fmt.str "Relation.make: tuple %a does not match header %a" Tuple.pp
         tuple Attribute.Set.pp header_set)

let make header tuples =
  let attr_set = check_header "make" header in
  List.iter (check_tuple attr_set) tuples;
  let row_of tuple = Array.of_list (List.map (Tuple.find tuple) header) in
  build header attr_set (distinct (Array.of_list (List.map row_of tuples)))

let of_arrays header rows =
  let attr_set = check_header "of_arrays" header in
  let arity = List.length header in
  Array.iter
    (fun row ->
      if Array.length row <> arity then
        invalid_arg
          (Printf.sprintf "Relation.of_arrays: row of width %d (arity %d)"
             (Array.length row) arity))
    rows;
  build header attr_set (distinct rows)

let of_rows schema rows =
  let attrs = Schema.attributes schema in
  let arity = List.length attrs in
  let row_of row =
    if List.length row <> arity then
      invalid_arg
        (Fmt.str "Relation.of_rows: row of width %d for %s (arity %d)"
           (List.length row) (Schema.name schema) arity);
    Array.of_list row
  in
  of_arrays attrs (Array.of_list (List.map row_of rows))

let header t = t.header
let attribute_set t = t.attr_set
let rows t = t.rows
let cardinality t = Array.length t.rows
let is_empty t = Array.length t.rows = 0

let byte_size t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc v -> acc + Value.byte_width v) acc row)
    0 t.rows

(* Position of [a] in [t]'s header. *)
let position t a =
  let rec from i =
    if Attribute.equal t.attrs.(i) a then i else from (i + 1)
  in
  from 0

let positions t attrs = Array.of_list (List.map (position t) attrs)
let pick pos row = Array.map (fun p -> row.(p)) pos

(* [Tuple.compare] on tuples over one header: values compared in
   [Attribute.compare] order of their attributes. *)
let tuples t =
  let order = positions t (Attribute.Set.elements t.attr_set) in
  let n = Array.length order in
  let compare_rows a b =
    let rec from i =
      if i = n then 0
      else
        let p = order.(i) in
        match Value.compare a.(p) b.(p) with 0 -> from (i + 1) | c -> c
    in
    from 0
  in
  let sorted = Array.copy t.rows in
  Array.stable_sort compare_rows sorted;
  Array.fold_right
    (fun row acc ->
      let tuple = ref Tuple.empty in
      Array.iteri (fun j a -> tuple := Tuple.add a row.(j) !tuple) t.attrs;
      !tuple :: acc)
    sorted []

let project attrs t =
  if Attribute.Set.is_empty attrs then
    invalid_arg "Relation.project: empty attribute set";
  if not (Attribute.Set.subset attrs t.attr_set) then
    invalid_arg
      (Fmt.str "Relation.project: %a not within header %a" Attribute.Set.pp
         (Attribute.Set.diff attrs t.attr_set)
         Attribute.Set.pp t.attr_set);
  if Attribute.Set.cardinal attrs = Array.length t.attrs then t
  else
    let header = List.filter (fun a -> Attribute.Set.mem a attrs) t.header in
    let pos = positions t header in
    with_rows header (distinct (Array.map (pick pos) t.rows))

let select pred t =
  if not (Attribute.Set.subset (Predicate.attributes pred) t.attr_set) then
    invalid_arg "Relation.select: predicate mentions unknown attributes";
  let keep row = Predicate.eval (fun a -> row.(position t a)) pred in
  { t with rows = filter keep t.rows }

let check_side op side_name side_attrs rel =
  List.iter
    (fun a ->
      if not (Attribute.Set.mem a rel.attr_set) then
        invalid_arg
          (Fmt.str "Relation.%s: %s attribute %a not in operand header" op
             side_name Attribute.pp_qualified a))
    side_attrs

(* Hash index of [rel]'s rows on the key at [pos]. *)
let index_by pos rel =
  let index = Row_tbl.create (Array.length rel.rows) in
  Array.iter (fun row -> Row_tbl.add index (pick pos row) row) rel.rows;
  index

(* Probe [index] with every row of [l] on the key at [lpos]; each match
   contributes [combine lrow rrow]. *)
let probe index lpos l combine =
  let out = ref [] in
  for i = Array.length l.rows - 1 downto 0 do
    let lrow = l.rows.(i) in
    List.iter
      (fun rrow -> out := combine lrow rrow :: !out)
      (Row_tbl.find_all index (pick lpos lrow))
  done;
  Array.of_list !out

let equi_join cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "equi_join" "left" jl l;
  check_side "equi_join" "right" jr r;
  if not (Attribute.Set.disjoint l.attr_set r.attr_set) then
    invalid_arg "Relation.equi_join: operands share attributes";
  let index = index_by (positions r jr) r in
  (* Distinct left rows paired with distinct right rows: the
     concatenations are distinct. *)
  with_rows (l.header @ r.header) (probe index (positions l jl) l Array.append)

let semi_join cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "semi_join" "left" jl l;
  check_side "semi_join" "right" jr r;
  let rpos = positions r jr in
  let keys = Row_tbl.create (Array.length r.rows) in
  Array.iter (fun row -> Row_tbl.replace keys (pick rpos row) ()) r.rows;
  let lpos = positions l jl in
  { l with rows = filter (fun row -> Row_tbl.mem keys (pick lpos row)) l.rows }

let natural_join l r =
  let shared =
    Attribute.Set.elements (Attribute.Set.inter l.attr_set r.attr_set)
  in
  if shared = [] then
    invalid_arg "Relation.natural_join: headers share no attribute";
  let r_only =
    List.filter (fun a -> not (Attribute.Set.mem a l.attr_set)) r.header
  in
  let index = index_by (positions r shared) r in
  let extra = positions r r_only in
  (* Matching rows agree on the shared columns, so two results coincide
     only when both their left and their right rows do. *)
  with_rows (l.header @ r_only)
    (probe index (positions l shared) l (fun lrow rrow ->
         Array.append lrow (pick extra rrow)))

(* [b]'s rows in [a]'s header order. *)
let rows_in_order_of a b =
  let perm = positions b a.header in
  let identity = ref true in
  Array.iteri (fun i p -> if i <> p then identity := false) perm;
  if !identity then b.rows else Array.map (pick perm) b.rows

let union a b =
  if not (Attribute.Set.equal a.attr_set b.attr_set) then
    invalid_arg "Relation.union: incompatible headers";
  { a with rows = distinct (Array.append a.rows (rows_in_order_of a b)) }

(* Both sides are distinct, so equal counts and one inclusion make equal
   sets. *)
let equal a b =
  Attribute.Set.equal a.attr_set b.attr_set
  && Array.length a.rows = Array.length b.rows
  &&
  let seen = Row_tbl.create (Array.length a.rows) in
  Array.iter (fun row -> Row_tbl.add seen row ()) a.rows;
  Array.for_all (fun row -> Row_tbl.mem seen row) (rows_in_order_of a b)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@]"
    Fmt.(list ~sep:(any " | ") Attribute.pp)
    t.header
    Fmt.(list ~sep:(any "@,") Tuple.pp)
    (tuples t)

let to_string = Fmt.to_to_string pp
