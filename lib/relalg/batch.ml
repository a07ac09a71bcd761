(* Columnar batches: one int array per column, values interned to
   dense codes. Every operator preserves the representation invariant
   that rows are distinct (set semantics), so decoding through
   [to_relation] never collapses anything. *)

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Dict = struct
  type t = {
    mutable values : Value.t array; (* code -> value *)
    mutable size : int;
    codes : int VH.t; (* value -> code *)
  }

  let create () =
    { values = Array.make 64 Value.Null; size = 0; codes = VH.create 256 }

  let intern t v =
    match VH.find_opt t.codes v with
    | Some c -> c
    | None ->
      let c = t.size in
      if c = Array.length t.values then begin
        let bigger = Array.make (2 * c) Value.Null in
        Array.blit t.values 0 bigger 0 c;
        t.values <- bigger
      end;
      t.values.(c) <- v;
      t.size <- c + 1;
      VH.add t.codes v c;
      c

  let value t c = t.values.(c)
  let size t = t.size
  let find_opt t v = VH.find_opt t.codes v
end

type t = {
  dict : Dict.t;
  header : Attribute.t list;
  cols : int array array; (* cols.(i) holds the codes of header_i *)
  nrows : int; (* physical rows; the live ones are marked by [sel] *)
  sel : Bitset.t option; (* None = every physical row is live *)
}

(* Row keys are small code arrays; structural equality is exact on int
   arrays and the polymorphic hash samples enough positions for the
   narrow keys used here (join conditions and dedup keys). *)
module Rowtbl = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let header t = t.header

let cardinality t =
  match t.sel with None -> t.nrows | Some bs -> Bitset.count bs

(* Selection is lazy: [select] only narrows [sel], leaving the columns
   in place, and every consumer skips dead rows. [live t] is the
   selection vector as a concrete bitset for the consumers' row
   loops. *)
let live t = match t.sel with Some bs -> bs | None -> Bitset.full t.nrows

let of_relation dict rel =
  let header = Relation.header rel and rows = Relation.rows rel in
  let nrows = Array.length rows in
  let cols = Array.init (List.length header) (fun _ -> Array.make nrows 0) in
  Array.iteri
    (fun ri row ->
      Array.iteri (fun ci v -> cols.(ci).(ri) <- Dict.intern dict v) row)
    rows;
  { dict; header; cols; nrows; sel = None }

let indices_of_bitset bs =
  let out = Array.make (Bitset.count bs) 0 in
  let i = ref 0 in
  Bitset.iter
    (fun ri ->
      out.(!i) <- ri;
      incr i)
    bs;
  out

(* Live row indices, ascending. *)
let live_indices b =
  match b.sel with
  | None -> Array.init b.nrows (fun i -> i)
  | Some bs -> indices_of_bitset bs

let to_relation b =
  let row ri = Array.map (fun col -> Dict.value b.dict col.(ri)) b.cols in
  Relation.of_arrays b.header (Array.map row (live_indices b))

let attribute_set b = Attribute.Set.of_list b.header

let col_index b a =
  let rec go i = function
    | [] -> invalid_arg "Batch: attribute not in header"
    | x :: rest -> if Attribute.equal x a then i else go (i + 1) rest
  in
  go 0 b.header

(* Gather the rows whose indices are listed, in order; the result is
   dense (no selection vector). *)
let gather_rows b idx =
  let n = Array.length idx in
  let cols =
    Array.map
      (fun col ->
        let out = Array.make n 0 in
        for i = 0 to n - 1 do
          out.(i) <- col.(idx.(i))
        done;
        out)
      b.cols
  in
  { b with cols; nrows = n; sel = None }

(* ------------------------------------------------------------------ *)
(* Projection.                                                         *)

let project attrs b =
  if Attribute.Set.is_empty attrs then
    invalid_arg "Batch.project: empty attribute set";
  let header_set = attribute_set b in
  if not (Attribute.Set.subset attrs header_set) then
    invalid_arg
      (Fmt.str "Batch.project: %a not within header %a" Attribute.Set.pp
         (Attribute.Set.diff attrs header_set)
         Attribute.Set.pp header_set);
  let keep_pos =
    List.concat
      (List.mapi
         (fun i a -> if Attribute.Set.mem a attrs then [ i ] else [])
         b.header)
  in
  if List.length keep_pos = Array.length b.cols then b
  else begin
    let header = List.filter (fun a -> Attribute.Set.mem a attrs) b.header in
    let pos = Array.of_list keep_pos in
    (* Dropping columns can merge rows: dedup on the projected codes.
       The codes usually pack into one machine word (ncodes^k < 2^62),
       making dedup an open-addressing int set with no per-row key
       allocation; wider keys fall back to hashed code arrays. *)
    let rows = live_indices b in
    let nlive = Array.length rows in
    let kept = ref [] and nkept = ref 0 in
    let keep ri =
      kept := ri :: !kept;
      incr nkept
    in
    let ncodes = max 1 (Dict.size b.dict) in
    let packable =
      Array.fold_left
        (fun acc _ ->
          match acc with
          | None -> None
          | Some cap ->
            if cap > max_int / ncodes then None else Some (cap * ncodes))
        (Some 1) pos
      <> None
    in
    (if packable then begin
       let cap = ref 16 in
       while !cap < 2 * nlive do
         cap := !cap * 2
       done;
       let mask = !cap - 1 in
       let slots = Array.make !cap (-1) in
       for i = 0 to nlive - 1 do
         let ri = rows.(i) in
         let key = ref 0 in
         Array.iter (fun ci -> key := (!key * ncodes) + b.cols.(ci).(ri)) pos;
         let key = !key in
         let s = ref (key * 0x2545f4914f6cdd1d land max_int land mask) in
         while slots.(!s) <> key && slots.(!s) <> -1 do
           s := (!s + 1) land mask
         done;
         if slots.(!s) = -1 then begin
           slots.(!s) <- key;
           keep ri
         end
       done
     end
     else begin
       let seen = Rowtbl.create (max 16 nlive) in
       for i = 0 to nlive - 1 do
         let ri = rows.(i) in
         let key = Array.map (fun ci -> b.cols.(ci).(ri)) pos in
         if not (Rowtbl.mem seen key) then begin
           Rowtbl.add seen key ();
           keep ri
         end
       done
     end);
    let idx = Array.make !nkept 0 in
    let i = ref (!nkept - 1) in
    List.iter
      (fun ri ->
        idx.(!i) <- ri;
        decr i)
      !kept;
    let narrow = { b with header; cols = Array.map (fun ci -> b.cols.(ci)) pos } in
    gather_rows narrow idx
  end

(* ------------------------------------------------------------------ *)
(* Selection: predicates evaluate into bitsets, column at a time, with
   a per-(atom, column) memo so each distinct code is compared once.   *)

let eval_atom b cmp col_i operand =
  let bs = Bitset.create b.nrows in
  let col = b.cols.(col_i) in
  (match operand with
   | Predicate.Const v ->
     if Dict.size b.dict > b.nrows then
       (* Narrow batch under a wide dictionary: per-row evaluation
          beats zeroing a code-wide memo. *)
       for ri = 0 to b.nrows - 1 do
         if Predicate.compare_values cmp (Dict.value b.dict col.(ri)) v then
           Bitset.set bs ri
       done
     else begin
       (* Memo over codes: '\000' unseen, '\001' sat, '\002' unsat. *)
       let memo = Bytes.make (Dict.size b.dict) '\000' in
       for ri = 0 to b.nrows - 1 do
         let c = col.(ri) in
         let verdict =
           match Bytes.get memo c with
           | '\001' -> true
           | '\002' -> false
           | _ ->
             let sat = Predicate.compare_values cmp (Dict.value b.dict c) v in
             Bytes.set memo c (if sat then '\001' else '\002');
             sat
         in
         if verdict then Bitset.set bs ri
       done
     end
   | Predicate.Attr a2 ->
     let col2 = b.cols.(col_index b a2) in
     let null_code = Dict.find_opt b.dict Value.Null in
     let is_null c = null_code = Some c in
     (match cmp with
      | Predicate.Eq ->
        (* Codes are Value.equal classes, so equality is code
           equality — except NULL, which matches nothing. *)
        for ri = 0 to b.nrows - 1 do
          let ca = col.(ri) in
          if ca = col2.(ri) && not (is_null ca) then Bitset.set bs ri
        done
      | Predicate.Neq ->
        for ri = 0 to b.nrows - 1 do
          let ca = col.(ri) and cb = col2.(ri) in
          if ca <> cb && (not (is_null ca)) && not (is_null cb) then
            Bitset.set bs ri
        done
      | Predicate.Lt | Le | Gt | Ge ->
        for ri = 0 to b.nrows - 1 do
          if
            Predicate.compare_values cmp
              (Dict.value b.dict col.(ri))
              (Dict.value b.dict col2.(ri))
          then Bitset.set bs ri
        done));
  bs

(* [negated] pushes Not down to the atoms (the same De Morgan +
   comparison-flip rewrite as Predicate.eval), so NULL-bearing rows
   fail a predicate and its negation alike. *)
let rec eval_pred b ~negated = function
  | Predicate.True ->
    if negated then Bitset.create b.nrows else Bitset.full b.nrows
  | Predicate.And (p, q) ->
    let bp = eval_pred b ~negated p and bq = eval_pred b ~negated q in
    if negated then Bitset.union bp bq else Bitset.inter bp bq
  | Predicate.Or (p, q) ->
    let bp = eval_pred b ~negated p and bq = eval_pred b ~negated q in
    if negated then Bitset.inter bp bq else Bitset.union bp bq
  | Predicate.Not p -> eval_pred b ~negated:(not negated) p
  | Predicate.Cmp (a, cmp, operand) ->
    let cmp = if negated then Predicate.negate_comparison cmp else cmp in
    eval_atom b cmp (col_index b a) operand

(* No rows move: the predicate evaluates over the physical rows (dead
   rows are harmless — their codes are real values) and the result
   intersects into the selection vector. *)
let select pred b =
  let header_set = attribute_set b in
  if not (Attribute.Set.subset (Predicate.attributes pred) header_set) then
    invalid_arg "Batch.select: predicate mentions unknown attributes";
  let bs = eval_pred b ~negated:false pred in
  let bs = match b.sel with None -> bs | Some s -> Bitset.inter bs s in
  if Bitset.count bs = cardinality b then b else { b with sel = Some bs }

(* ------------------------------------------------------------------ *)
(* Joins.                                                              *)

let check_side op side_name side_attrs b =
  let header_set = attribute_set b in
  List.iter
    (fun a ->
      if not (Attribute.Set.mem a header_set) then
        invalid_arg
          (Fmt.str "Batch.%s: %s attribute %a not in operand header" op
             side_name Attribute.pp_qualified a))
    side_attrs

(* Re-encode [b] into [dst]'s dictionary so joins compare codes
   directly. A no-op when the dictionary is already shared (the case
   in [eval], where all leaves intern into one dict). *)
let translate dst b =
  if b.dict == dst then b
  else begin
    let tr =
      Array.init (Dict.size b.dict) (fun c -> Dict.intern dst (Dict.value b.dict c))
    in
    {
      b with
      dict = dst;
      cols = Array.map (fun col -> Array.map (fun c -> tr.(c)) col) b.cols;
    }
  end

let positions b side = Array.of_list (List.map (col_index b) side)

let key_at cols pos ri = Array.map (fun ci -> cols.(ci).(ri)) pos

(* Growable int vector for probe outputs. *)
type grower = { mutable buf : int array; mutable n : int }

let grower () = { buf = Array.make 256 0; n = 0 }

let push g v =
  if g.n = Array.length g.buf then begin
    let bigger = Array.make (2 * g.n) 0 in
    Array.blit g.buf 0 bigger 0 g.n;
    g.buf <- bigger
  end;
  g.buf.(g.n) <- v;
  g.n <- g.n + 1

let default_partitions () = max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* Probe chunks run on their own domains; every joinable pair meets in
   exactly one chunk (the build side is complete in every chunk), so
   the result is partition-invariant by construction. *)
let chunked ~nparts ~lrows work =
  let chunk = (lrows + nparts - 1) / nparts in
  let work p = work ~lo:(p * chunk) ~hi:(min lrows ((p + 1) * chunk)) in
  if nparts = 1 then [| work 0 |]
  else
    Array.map Domain.join
      (Array.init nparts (fun p -> Domain.spawn (fun () -> work p)))

(* Single-attribute join over a dense code space: bucket the build
   side's row indices per code in two counting passes — no per-row
   allocation, no hashing. Work is proportional to rows + codes, so
   this is for dictionaries no wider than the data. *)
let join_codes_dense ~nparts ~lsel ~rsel lcol rcol lrows rrows ncodes =
  let count = Array.make (ncodes + 1) 0 in
  for ri = 0 to rrows - 1 do
    if Bitset.get rsel ri then count.(rcol.(ri)) <- count.(rcol.(ri)) + 1
  done;
  (* Exclusive prefix sum: count.(c) becomes the start of bucket c. *)
  let acc = ref 0 in
  for c = 0 to ncodes do
    let n = count.(c) in
    count.(c) <- !acc;
    acc := !acc + n
  done;
  let bucket = Array.make (max 1 rrows) 0 in
  for ri = 0 to rrows - 1 do
    if Bitset.get rsel ri then begin
      let c = rcol.(ri) in
      bucket.(count.(c)) <- ri;
      count.(c) <- count.(c) + 1
    end
  done;
  (* Filling advanced every start to its end: bucket c now spans
     [if c = 0 then 0 else count.(c-1), count.(c)). *)
  chunked ~nparts ~lrows (fun ~lo ~hi ->
      let lg = grower () and rg = grower () in
      for li = lo to hi - 1 do
        if Bitset.get lsel li then begin
          let c = lcol.(li) in
          let b0 = if c = 0 then 0 else count.(c - 1) in
          for bi = b0 to count.(c) - 1 do
            push lg li;
            push rg bucket.(bi)
          done
        end
      done;
      (lg, rg))

(* Single-attribute join over a sparse code space: a compact
   open-addressing multimap (code -> chain of build rows) sized by the
   build side, for dictionaries much wider than the operand — probing
   touches a few cache lines instead of a code-wide array. *)
let join_codes_sparse ~nparts ~lsel ~rsel lcol rcol lrows rrows =
  let cap = ref 16 in
  while !cap < 2 * rrows do
    cap := !cap * 2
  done;
  let cap = !cap in
  let mask = cap - 1 in
  let slot_code = Array.make cap (-1) in
  let slot_head = Array.make cap (-1) in
  let next = Array.make (max 1 rrows) (-1) in
  let slot_of c =
    let s = ref (c * 0x2545f4914f6cdd1d land max_int land mask) in
    while slot_code.(!s) <> c && slot_code.(!s) <> -1 do
      s := (!s + 1) land mask
    done;
    !s
  in
  for ri = 0 to rrows - 1 do
    if Bitset.get rsel ri then begin
      let s = slot_of rcol.(ri) in
      slot_code.(s) <- rcol.(ri);
      next.(ri) <- slot_head.(s);
      slot_head.(s) <- ri
    end
  done;
  chunked ~nparts ~lrows (fun ~lo ~hi ->
      let lg = grower () and rg = grower () in
      for li = lo to hi - 1 do
        if Bitset.get lsel li then begin
          let rj = ref slot_head.(slot_of lcol.(li)) in
          while !rj <> -1 do
            push lg li;
            push rg !rj;
            rj := next.(!rj)
          done
        end
      done;
      (lg, rg))

let join_codes ~nparts ~lsel ~rsel lcol rcol lrows rrows ncodes =
  if ncodes <= (8 * rrows) + 1024 then
    join_codes_dense ~nparts ~lsel ~rsel lcol rcol lrows rrows ncodes
  else join_codes_sparse ~nparts ~lsel ~rsel lcol rcol lrows rrows

(* Hash-partitioned parallel equi-join: rows are routed to a partition
   by the hash of their join-key codes, so every pair of joinable rows
   meets in exactly one partition (the one-round parallel-correctness
   condition); each partition builds over its right rows and probes
   its left rows on its own domain. Single-attribute conditions (the
   common case) take the dense-code path instead. *)
let equi_join ?partitions cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "equi_join" "left" jl l;
  check_side "equi_join" "right" jr r;
  if not (Attribute.Set.disjoint (attribute_set l) (attribute_set r)) then
    invalid_arg "Batch.equi_join: operands share attributes";
  let r = translate l.dict r in
  let lpos = positions l jl and rpos = positions r jr in
  let nparts =
    match partitions with
    | Some p when p >= 1 -> p
    | Some _ -> invalid_arg "Batch.equi_join: partitions must be >= 1"
    | None -> default_partitions ()
  in
  let lsel = live l and rsel = live r in
  let results =
    if Array.length lpos = 1 then
      join_codes ~nparts ~lsel ~rsel
        l.cols.(lpos.(0))
        r.cols.(rpos.(0))
        l.nrows r.nrows (Dict.size l.dict)
    else begin
      let part_of cols pos ri =
        let h = ref 0x811c9dc5 in
        Array.iter (fun ci -> h := (!h * 0x01000193) lxor cols.(ci).(ri)) pos;
        !h land max_int mod nparts
      in
      let lparts = Array.make nparts [] and rparts = Array.make nparts [] in
      for ri = l.nrows - 1 downto 0 do
        if Bitset.get lsel ri then begin
          let p = part_of l.cols lpos ri in
          lparts.(p) <- ri :: lparts.(p)
        end
      done;
      for ri = r.nrows - 1 downto 0 do
        if Bitset.get rsel ri then begin
          let p = part_of r.cols rpos ri in
          rparts.(p) <- ri :: rparts.(p)
        end
      done;
      let work lrows rrows =
        let tbl = Rowtbl.create (max 16 (List.length rrows)) in
        List.iter (fun ri -> Rowtbl.add tbl (key_at r.cols rpos ri) ri) rrows;
        let lg = grower () and rg = grower () in
        List.iter
          (fun li ->
            List.iter
              (fun rj ->
                push lg li;
                push rg rj)
              (Rowtbl.find_all tbl (key_at l.cols lpos li)))
          lrows;
        (lg, rg)
      in
      if nparts = 1 then [| work lparts.(0) rparts.(0) |]
      else
        Array.map Domain.join
          (Array.init nparts (fun p ->
               Domain.spawn (fun () -> work lparts.(p) rparts.(p))))
    end
  in
  let total = Array.fold_left (fun acc (lg, _) -> acc + lg.n) 0 results in
  let ncols_l = Array.length l.cols and ncols_r = Array.length r.cols in
  let cols = Array.init (ncols_l + ncols_r) (fun _ -> Array.make total 0) in
  let off = ref 0 in
  Array.iter
    (fun (lg, rg) ->
      for i = 0 to lg.n - 1 do
        let li = lg.buf.(i) and rj = rg.buf.(i) in
        for ci = 0 to ncols_l - 1 do
          cols.(ci).(!off + i) <- l.cols.(ci).(li)
        done;
        for ci = 0 to ncols_r - 1 do
          cols.(ncols_l + ci).(!off + i) <- r.cols.(ci).(rj)
        done
      done;
      off := !off + lg.n)
    results;
  (* Distinct left rows x distinct right rows: concatenated rows are
     distinct, no dedup pass needed. *)
  { dict = l.dict; header = l.header @ r.header; cols; nrows = total; sel = None }

let semi_join cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "semi_join" "left" jl l;
  check_side "semi_join" "right" jr r;
  let r = translate l.dict r in
  let lpos = positions l jl and rpos = positions r jr in
  let rsel = live r in
  let bs = Bitset.create l.nrows in
  (if Array.length lpos = 1 then begin
     (* Dense-code membership: one byte per dictionary code. *)
     let lcol = l.cols.(lpos.(0)) and rcol = r.cols.(rpos.(0)) in
     let present = Bytes.make (Dict.size l.dict) '\000' in
     for ri = 0 to r.nrows - 1 do
       if Bitset.get rsel ri then Bytes.set present rcol.(ri) '\001'
     done;
     for ri = 0 to l.nrows - 1 do
       if Bytes.get present lcol.(ri) = '\001' then Bitset.set bs ri
     done
   end
   else begin
     let keys = Rowtbl.create (max 16 r.nrows) in
     for ri = 0 to r.nrows - 1 do
       if Bitset.get rsel ri then
         Rowtbl.replace keys (key_at r.cols rpos ri) ()
     done;
     for ri = 0 to l.nrows - 1 do
       if Rowtbl.mem keys (key_at l.cols lpos ri) then Bitset.set bs ri
     done
   end);
  (* Matches over the physical left rows, narrowed to the live ones:
     another selection vector, no rows move. *)
  let bs = match l.sel with None -> bs | Some s -> Bitset.inter bs s in
  if Bitset.count bs = cardinality l then l else { l with sel = Some bs }

let natural_join l r =
  let shared =
    Attribute.Set.inter (attribute_set l) (attribute_set r)
    |> Attribute.Set.elements
  in
  if shared = [] then
    invalid_arg "Batch.natural_join: headers share no attribute";
  let r = translate l.dict r in
  let lpos = positions l shared and rpos = positions r shared in
  let r_only_pos =
    List.concat
      (List.mapi
         (fun i a ->
           if List.exists (Attribute.equal a) shared then [] else [ i ])
         r.header)
    |> Array.of_list
  in
  let r_only_header =
    List.filter
      (fun a -> not (List.exists (Attribute.equal a) shared))
      r.header
  in
  let lsel = live l and rsel = live r in
  let tbl = Rowtbl.create (max 16 r.nrows) in
  for ri = 0 to r.nrows - 1 do
    if Bitset.get rsel ri then Rowtbl.add tbl (key_at r.cols rpos ri) ri
  done;
  let lg = grower () and rg = grower () in
  for li = 0 to l.nrows - 1 do
    if Bitset.get lsel li then
      List.iter
        (fun rj ->
          push lg li;
          push rg rj)
        (Rowtbl.find_all tbl (key_at l.cols lpos li))
  done;
  (* Matching rows agree on the shared columns, so two result rows
     coincide only if both source rows do: distinctness is
     preserved. *)
  let total = lg.n in
  let ncols_l = Array.length l.cols in
  let ncols_ro = Array.length r_only_pos in
  let cols = Array.init (ncols_l + ncols_ro) (fun _ -> Array.make total 0) in
  for i = 0 to total - 1 do
    let li = lg.buf.(i) and rj = rg.buf.(i) in
    for ci = 0 to ncols_l - 1 do
      cols.(ci).(i) <- l.cols.(ci).(li)
    done;
    for ci = 0 to ncols_ro - 1 do
      cols.(ncols_l + ci).(i) <- r.cols.(r_only_pos.(ci)).(rj)
    done
  done;
  {
    dict = l.dict;
    header = l.header @ r_only_header;
    cols;
    nrows = total;
    sel = None;
  }

(* ------------------------------------------------------------------ *)
(* Batch-native evaluation.                                            *)

let eval ~lookup e =
  (match Algebra.validate e with
   | Ok () -> ()
   | Error err -> invalid_arg (Fmt.str "Batch.eval: %a" Algebra.pp_error err));
  let dict = Dict.create () in
  let rec go = function
    | Algebra.Relation schema -> of_relation dict (lookup schema)
    | Algebra.Project (attrs, e) -> project attrs (go e)
    | Algebra.Select (pred, e) -> select pred (go e)
    | Algebra.Join (cond, le, re) ->
      let lb = go le and rb = go re in
      let cond =
        match
          Algebra.oriented_cond cond ~left_out:(Algebra.output le)
            ~right_out:(Algebra.output re)
        with
        | Some c -> c
        | None -> assert false (* validated above *)
      in
      equi_join cond lb rb
  in
  to_relation (go e)

module Exec : Exec.S = struct
  let name = "batch"

  let unary op rel =
    let dict = Dict.create () in
    to_relation (op (of_relation dict rel))

  let binary op a b =
    let dict = Dict.create () in
    to_relation (op (of_relation dict a) (of_relation dict b))

  let project attrs = unary (project attrs)
  let select pred = unary (select pred)
  let equi_join cond = binary (equi_join ?partitions:None cond)
  let semi_join cond = binary (semi_join cond)
  let natural_join a b = binary natural_join a b
end
