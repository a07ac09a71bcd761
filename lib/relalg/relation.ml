(* A relation is a header and an array of positional rows: [rows.(i).(j)]
   is the value of the header's [j]-th attribute in row [i]. Rows are
   distinct under [Value.equal]. Every operator keeps that invariant:
   [select] and [semi_join] keep a subset of their operand's rows, the
   joins pair distinct rows with distinct rows, and only [project],
   [union] and the constructors, which can meet a row twice,
   deduplicate.

   Every operator is planned against its operands' headers first
   ([plan_*]: checks, positions, output header) and then applied to
   rows; the unplanned operators plan on every call. *)

module Header = struct
  type t = {
    attrs : Attribute.t list;
    arr : Attribute.t array; (* [attrs], positionally *)
    mutable set : Attribute.Set.t option;
        (* [attrs] as a set: given, or built on first use and kept *)
  }

  let unchecked ?set attrs = { attrs; arr = Array.of_list attrs; set }

  let of_list op attrs =
    if attrs = [] then
      invalid_arg (Printf.sprintf "Relation.%s: empty header" op);
    let set = Attribute.Set.of_list attrs in
    if Attribute.Set.cardinal set <> List.length attrs then
      invalid_arg
        (Printf.sprintf "Relation.%s: duplicate attribute in header" op);
    unchecked ~set attrs

  let arity h = Array.length h.arr

  let set h =
    match h.set with
    | Some s -> s
    | None ->
      let s = Attribute.Set.of_list h.attrs in
      h.set <- Some s;
      s

  (* Through the set when there is one; an operator's output header is
     scanned instead, so planning never builds its set. *)
  let mem h a =
    match h.set with
    | Some s -> Attribute.Set.mem a s
    | None -> Array.exists (Attribute.equal a) h.arr

  let position h a =
    let rec from i = if Attribute.equal h.arr.(i) a then i else from (i + 1) in
    from 0

  let positions h attrs = Array.of_list (List.map (position h) attrs)
  let equal a b = a == b || List.equal Attribute.equal a.attrs b.attrs

  let share_set h s =
    if
      Attribute.Set.cardinal s = Array.length h.arr
      && Array.for_all (fun a -> Attribute.Set.mem a s) h.arr
    then h.set <- Some s
end

type t = {
  header : Header.t;
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

let check_tuple header_set tuple =
  if not (Attribute.Set.equal (Tuple.attributes tuple) header_set) then
    invalid_arg
      (Fmt.str "Relation.make: tuple %a does not match header %a" Tuple.pp
         tuple Attribute.Set.pp header_set)

let make header tuples =
  let header = Header.of_list "make" header in
  List.iter (check_tuple (Header.set header)) tuples;
  let row_of tuple =
    Array.of_list (List.map (Tuple.find tuple) header.Header.attrs)
  in
  { header; rows = distinct (Array.of_list (List.map row_of tuples)) }

let of_arrays header rows =
  let header = Header.of_list "of_arrays" header in
  let arity = Header.arity header in
  Array.iter
    (fun row ->
      if Array.length row <> arity then
        invalid_arg
          (Printf.sprintf "Relation.of_arrays: row of width %d (arity %d)"
             (Array.length row) arity))
    rows;
  { header; rows = distinct rows }

(* The schema's attributes are distinct and its set is built: the
   header shares it. *)
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
  {
    header = Header.unchecked ~set:(Schema.attribute_set schema) attrs;
    rows = distinct (Array.of_list (List.map row_of rows));
  }

let header t = t.header.attrs
let header_value t = t.header
let attribute_set t = Header.set t.header
let rows t = t.rows
let cardinality t = Array.length t.rows
let is_empty t = Array.length t.rows = 0

let byte_size t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc v -> acc + Value.byte_width v) acc row)
    0 t.rows

let pick pos row = Array.map (fun p -> row.(p)) pos

(* [Tuple.compare] on tuples over one header: values compared in
   [Attribute.compare] order of their attributes. *)
let tuples t =
  let order =
    Header.positions t.header (Attribute.Set.elements (attribute_set t))
  in
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
      Array.iteri
        (fun j a -> tuple := Tuple.add a row.(j) !tuple)
        t.header.Header.arr;
      !tuple :: acc)
    sorted []

(* A planned operator applied to an operand over another header would
   read the wrong positions. *)
let expect op h t =
  if not (Header.equal t.header h) then
    invalid_arg
      (Printf.sprintf "Relation.%s: operand header differs from the planned one"
         op)

let plan_project attrs h =
  if Attribute.Set.is_empty attrs then
    invalid_arg "Relation.project: empty attribute set";
  if not (Attribute.Set.for_all (Header.mem h) attrs) then begin
    let hs = Header.set h in
    invalid_arg
      (Fmt.str "Relation.project: %a not within header %a" Attribute.Set.pp
         (Attribute.Set.diff attrs hs)
         Attribute.Set.pp hs)
  end;
  if Attribute.Set.cardinal attrs = Header.arity h then
    ( h,
      fun t ->
        expect "project" h t;
        t )
  else
    let out =
      Header.unchecked ~set:attrs
        (List.filter (fun a -> Attribute.Set.mem a attrs) h.Header.attrs)
    in
    let pos = Header.positions h out.Header.attrs in
    ( out,
      fun t ->
        expect "project" h t;
        { header = out; rows = distinct (Array.map (pick pos) t.rows) } )

let project attrs t = snd (plan_project attrs t.header) t

let plan_select pred h =
  if not (Attribute.Set.for_all (Header.mem h) (Predicate.attributes pred))
  then invalid_arg "Relation.select: predicate mentions unknown attributes";
  let keep = Predicate.compile (Header.position h) pred in
  fun t ->
    expect "select" h t;
    { header = h; rows = filter keep t.rows }

let select pred t = plan_select pred t.header t

let check_side op side_name side_attrs h =
  List.iter
    (fun a ->
      if not (Header.mem h a) then
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

let plan_equi_join cond lh rh =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "equi_join" "left" jl lh;
  check_side "equi_join" "right" jr rh;
  if Array.exists (Header.mem lh) rh.Header.arr then
    invalid_arg "Relation.equi_join: operands share attributes";
  let out = Header.unchecked (lh.Header.attrs @ rh.Header.attrs) in
  let lpos = Header.positions lh jl and rpos = Header.positions rh jr in
  ( out,
    fun l r ->
      expect "equi_join" lh l;
      expect "equi_join" rh r;
      (* Distinct left rows paired with distinct right rows: the
         concatenations are distinct. *)
      { header = out; rows = probe (index_by rpos r) lpos l Array.append } )

let equi_join cond l r = snd (plan_equi_join cond l.header r.header) l r

let plan_semi_join cond lh rh =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "semi_join" "left" jl lh;
  check_side "semi_join" "right" jr rh;
  let lpos = Header.positions lh jl and rpos = Header.positions rh jr in
  fun l r ->
    expect "semi_join" lh l;
    expect "semi_join" rh r;
    let keys = Row_tbl.create (Array.length r.rows) in
    Array.iter (fun row -> Row_tbl.replace keys (pick rpos row) ()) r.rows;
    {
      header = lh;
      rows = filter (fun row -> Row_tbl.mem keys (pick lpos row)) l.rows;
    }

let semi_join cond l r = plan_semi_join cond l.header r.header l r

let plan_natural_join lh rh =
  let shared =
    List.sort Attribute.compare (List.filter (Header.mem rh) lh.Header.attrs)
  in
  if shared = [] then
    invalid_arg "Relation.natural_join: headers share no attribute";
  let r_only =
    List.filter (fun a -> not (Header.mem lh a)) rh.Header.attrs
  in
  let out = Header.unchecked (lh.Header.attrs @ r_only) in
  let lpos = Header.positions lh shared
  and rpos = Header.positions rh shared
  and extra = Header.positions rh r_only in
  ( out,
    fun l r ->
      expect "natural_join" lh l;
      expect "natural_join" rh r;
      (* Matching rows agree on the shared columns, so two results
         coincide only when both their left and their right rows do. *)
      {
        header = out;
        rows =
          probe (index_by rpos r) lpos l (fun lrow rrow ->
              Array.append lrow (pick extra rrow));
      } )

let natural_join l r = snd (plan_natural_join l.header r.header) l r

(* [b]'s rows in [a]'s header order. *)
let rows_in_order_of a b =
  let perm = Header.positions b.header a.header.Header.attrs in
  let identity = ref true in
  Array.iteri (fun i p -> if i <> p then identity := false) perm;
  if !identity then b.rows else Array.map (pick perm) b.rows

let union a b =
  if not (Attribute.Set.equal (attribute_set a) (attribute_set b)) then
    invalid_arg "Relation.union: incompatible headers";
  { a with rows = distinct (Array.append a.rows (rows_in_order_of a b)) }

(* Both sides are distinct, so equal counts and one inclusion make equal
   sets. *)
let equal a b =
  Attribute.Set.equal (attribute_set a) (attribute_set b)
  && Array.length a.rows = Array.length b.rows
  &&
  let seen = Row_tbl.create (Array.length a.rows) in
  Array.iter (fun row -> Row_tbl.add seen row ()) a.rows;
  Array.for_all (fun row -> Row_tbl.mem seen row) (rows_in_order_of a b)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@]"
    Fmt.(list ~sep:(any " | ") Attribute.pp)
    t.header.Header.attrs
    Fmt.(list ~sep:(any "@,") Tuple.pp)
    (tuples t)

let to_string = Fmt.to_to_string pp
