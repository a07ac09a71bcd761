(* A relation is a header and an array of positional rows: [rows.(i).(j)]
   is the value of the header's [j]-th attribute in row [i]. Rows are
   distinct under [Value.equal]. Every operator keeps that invariant:
   [select] and [semi_join] keep a subset of their operand's rows, the
   joins pair distinct rows with distinct rows, and only [project],
   [union] and the constructors, which can meet a row twice,
   deduplicate.

   Every operator is planned against its operands' headers first
   ([plan_*]: checks, positions, output header) and then applied to
   rows; the unplanned operators plan on every call. Every operator
   that matches rows runs on one index of row numbers (below). *)

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

(* The row index: open addressing over the numbers of the rows
   [indexed], keyed by their values at positions [at], in [Value.equal]
   classes ([Int 3] and
   [Float 3.] are one key, and so are two NULLs). [slots] holds row
   numbers, -1 when empty, at a load of at most 2/3; a key's first
   slot is the high bits of its hash times a Fibonacci constant (low
   bits would pile keys strided by a power of two into a few slots),
   and a probe goes on to the next slot, wrapping. [hashes.(i)] is row
   [i]'s key hash, compared before any value. In a join's index,
   [next.(i)] is the next row after [i] with its key, -1 at the last,
   and the slot holds the first: a key's rows in row order.

   A probe compares the stored row's key positions in place, so no
   key, cell, list or closure is allocated per row. The loops are
   top-level functions with explicit arguments: without flambda, a
   local recursive function capturing the probed row is a closure
   allocated per probe. *)
type index = {
  indexed : Value.t array array;
  at : int array;
  hashes : int array;
  slots : int array;
  shift : int; (* [Sys.int_size] - log2 (slot count) *)
  next : int array; (* [[||]] outside a join *)
}

(* 2^63 over the golden ratio, made odd. *)
let fibonacci = 0x4F1BBCDCBFA53E0B

let index ~chained rows pos =
  let n = Array.length rows in
  let bits = ref 1 in
  while 2 lsl !bits < 3 * n do
    incr bits
  done;
  {
    indexed = rows;
    at = pos;
    hashes = Array.make n 0;
    slots = Array.make (1 lsl !bits) (-1);
    shift = Sys.int_size - !bits;
    next = (if chained then Array.make n (-1) else [||]);
  }

let hash_at row pos =
  let h = ref 0 in
  for k = 0 to Array.length pos - 1 do
    h := (!h * fibonacci) + Value.key_hash row.(pos.(k))
  done;
  !h

let rec same_key a apos b bpos k =
  k < 0
  || (let x = a.(apos.(k)) and y = b.(bpos.(k)) in
      x == y || Value.equal x y)
     && same_key a apos b bpos (k - 1)

let rec find ix row pos h s =
  let i = ix.slots.(s) in
  if
    i < 0
    || ix.hashes.(i) = h
       && same_key ix.indexed.(i) ix.at row pos (Array.length pos - 1)
  then s
  else find ix row pos h ((s + 1) land (Array.length ix.slots - 1))

(* The slot of [row]'s key at [pos], whose hash is [h]: the one holding
   an indexed row with that key, or the empty one where it would go. *)
let slot ix row pos h = find ix row pos h ((h * fibonacci) lsr ix.shift)

(* The indexed row number with [row]'s key at [pos], or -1 (in a join's
   index, the first of them). *)
let lookup ix row pos = ix.slots.(slot ix row pos (hash_at row pos))

(* Indexes row [i] unless an indexed row has its key: whether it did. *)
let add ix i =
  let row = ix.indexed.(i) in
  let h = hash_at row ix.at in
  ix.hashes.(i) <- h;
  let s = slot ix row ix.at h in
  if ix.slots.(s) >= 0 then false
  else begin
    ix.slots.(s) <- i;
    true
  end

(* A set of [rows]' keys at [pos]. *)
let key_set rows pos =
  let ix = index ~chained:false rows pos in
  for i = 0 to Array.length rows - 1 do
    ignore (add ix i)
  done;
  ix

(* A join's index: every row of [rows], chained by key at [pos]. Rows
   go in from the last, each at the head of its key's chain. *)
let chains rows pos =
  let ix = index ~chained:true rows pos in
  for i = Array.length rows - 1 downto 0 do
    let row = rows.(i) in
    let h = hash_at row pos in
    ix.hashes.(i) <- h;
    let s = slot ix row pos h in
    ix.next.(i) <- ix.slots.(s);
    ix.slots.(s) <- i
  done;
  ix

(* The numbers of the first row of each key of [rows] at [pos], in
   order, and how many there are. *)
let firsts rows pos =
  let ix = index ~chained:false rows pos in
  let kept = Array.make (Array.length rows) 0 in
  let m = ref 0 in
  for i = 0 to Array.length rows - 1 do
    if add ix i then begin
      kept.(!m) <- i;
      incr m
    end
  done;
  (kept, !m)

(* [row]'s values at [pos]. *)
let pick pos row =
  let out = Array.make (Array.length pos) Value.Null in
  for k = 0 to Array.length pos - 1 do
    out.(k) <- row.(pos.(k))
  done;
  out

(* [lrow] followed by [rrow]'s values at [extra], in one allocation. *)
let glue lrow rrow extra =
  let nl = Array.length lrow in
  let out = Array.make (nl + Array.length extra) Value.Null in
  Array.blit lrow 0 out 0 nl;
  for k = 0 to Array.length extra - 1 do
    out.(nl + k) <- rrow.(extra.(k))
  done;
  out

(* Each row of [lrows] glued to every indexed row its key at [lpos]
   matches: left row order, then each left row's matches in the
   index's row order. The output array grows by doubling. *)
let join ix lrows lpos extra =
  let out = ref (Array.make (max 16 (Array.length lrows)) [||]) in
  let n = ref 0 in
  for i = 0 to Array.length lrows - 1 do
    let lrow = lrows.(i) in
    let r = ref (lookup ix lrow lpos) in
    while !r >= 0 do
      if !n = Array.length !out then begin
        let bigger = Array.make (2 * !n) [||] in
        Array.blit !out 0 bigger 0 !n;
        out := bigger
      end;
      !out.(!n) <- glue lrow ix.indexed.(!r) extra;
      incr n;
      r := ix.next.(!r)
    done
  done;
  if !n = Array.length !out then !out else Array.sub !out 0 !n

let identity n = Array.init n Fun.id

(* [filter keep rows] keeps the rows [keep] accepts, in order; [rows]
   itself when it accepts all. [keep] runs once per row, into a
   survivors mask of one byte per row, so the only other allocation is
   the output itself. *)
let filter keep rows =
  let n = Array.length rows in
  let mask = Bytes.make n '\000' in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if keep rows.(i) then begin
      Bytes.set mask i '\001';
      incr m
    end
  done;
  if !m = n then rows
  else begin
    let out = Array.make !m [||] in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get mask i <> '\000' then begin
        out.(!k) <- rows.(i);
        incr k
      end
    done;
    out
  end

(* First occurrence of each row of width [arity]. *)
let distinct arity rows =
  if Array.length rows < 2 then rows
  else
    let kept, m = firsts rows (identity arity) in
    if m = Array.length rows then rows
    else Array.init m (fun k -> rows.(kept.(k)))

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
  {
    header;
    rows =
      distinct (Header.arity header) (Array.of_list (List.map row_of tuples));
  }

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
  { header; rows = distinct arity rows }

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
    rows = distinct arity (Array.of_list (List.map row_of rows));
  }

let header t = t.header.attrs
let header_value t = t.header
let attribute_set t = Header.set t.header
let rows t = t.rows
let cardinality t = Array.length t.rows
let is_empty t = Array.length t.rows = 0

let byte_size t =
  let n = ref 0 in
  for i = 0 to Array.length t.rows - 1 do
    let row = t.rows.(i) in
    for j = 0 to Array.length row - 1 do
      n := !n + Value.byte_width row.(j)
    done
  done;
  !n

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
        let kept, m = firsts t.rows pos in
        {
          header = out;
          rows = Array.init m (fun k -> pick pos t.rows.(kept.(k)));
        } )

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

let plan_equi_join cond lh rh =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "equi_join" "left" jl lh;
  check_side "equi_join" "right" jr rh;
  if Array.exists (Header.mem lh) rh.Header.arr then
    invalid_arg "Relation.equi_join: operands share attributes";
  let out = Header.unchecked (lh.Header.attrs @ rh.Header.attrs) in
  let lpos = Header.positions lh jl and rpos = Header.positions rh jr in
  let all = identity (Header.arity rh) in
  ( out,
    fun l r ->
      expect "equi_join" lh l;
      expect "equi_join" rh r;
      (* Distinct left rows paired with distinct right rows: the
         concatenations are distinct. *)
      { header = out; rows = join (chains r.rows rpos) l.rows lpos all } )

let equi_join cond l r = snd (plan_equi_join cond l.header r.header) l r

let plan_semi_join cond lh rh =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "semi_join" "left" jl lh;
  check_side "semi_join" "right" jr rh;
  let lpos = Header.positions lh jl and rpos = Header.positions rh jr in
  fun l r ->
    expect "semi_join" lh l;
    expect "semi_join" rh r;
    let keys = key_set r.rows rpos in
    { header = lh; rows = filter (fun row -> lookup keys row lpos >= 0) l.rows }

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
      { header = out; rows = join (chains r.rows rpos) l.rows lpos extra } )

let natural_join l r = snd (plan_natural_join l.header r.header) l r

(* [a]'s rows as a set, and where each of [a]'s attributes sits in [b]'s
   header. *)
let aligned a b =
  ( key_set a.rows (identity (Header.arity a.header)),
    Header.positions b.header a.header.Header.attrs )

(* Both sides are distinct, so the result is [a]'s rows, then [b]'s
   rows that no row of [a] equals, in [a]'s header order. *)
let union a b =
  if not (Attribute.Set.equal (attribute_set a) (attribute_set b)) then
    invalid_arg "Relation.union: incompatible headers";
  let seen, perm = aligned a b in
  let fresh = filter (fun row -> lookup seen row perm < 0) b.rows in
  let fresh =
    if Array.for_all2 Int.equal perm (identity (Array.length perm)) then fresh
    else Array.map (pick perm) fresh
  in
  { a with rows = Array.append a.rows fresh }

(* Both sides are distinct, so equal counts and one inclusion make equal
   sets. *)
let equal a b =
  Attribute.Set.equal (attribute_set a) (attribute_set b)
  && Array.length a.rows = Array.length b.rows
  &&
  let seen, perm = aligned a b in
  Array.for_all (fun row -> lookup seen row perm >= 0) b.rows

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@]"
    Fmt.(list ~sep:(any " | ") Attribute.pp)
    t.header.Header.attrs
    Fmt.(list ~sep:(any "@,") Tuple.pp)
    (tuples t)

let to_string = Fmt.to_to_string pp
