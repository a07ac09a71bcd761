open Relalg

type outcome =
  | Feasible of Assignment.t * float
  | Infeasible of int

type explored = {
  order : string list;
  plan : Plan.t;
  outcome : outcome;
}

type t = {
  best : explored option;
  explored : explored list;
  truncated : bool;
}

(* ------------------------------------------------------------------ *)
(* The query's join graph, on FROM positions: relation [i] is the
   [i]-th FROM relation, condition [c] the ON condition of the [c]-th
   JOIN, and a set of either is a bitmask. A condition attaches where
   the last relation it mentions joins, and only if every one of its
   pairs crosses from the prefix to that relation: otherwise an
   equality would degenerate into a post-join selection and change the
   profile. *)
type graph = {
  schemas : Schema.t array;
  names : string array;
  conds : Joinpath.Cond.t array;
  rels : int array;  (* per condition: the relations it mentions *)
  cross : int array;  (* per condition: the relations where all its pairs cross *)
  touch : int array;  (* per relation: the conditions that mention it *)
  near : int array;  (* per relation: the relations a condition shares with it *)
  usable : bool;  (* distinct names, few enough for a mask *)
}

let rec index_from names name i =
  if i = Array.length names then -1
  else if names.(i) == name || String.equal names.(i) name then i
  else index_from names name (i + 1)

let index names name = index_from names name 0
let bit names a = 1 lsl index names (Attribute.relation a)

(* A pair crosses where exactly one of its sides joins: at either of
   its two relations, nowhere when both sides are one relation. *)
let rec rels_and_cross names rels cross ls rs =
  match (ls, rs) with
  | l :: ls, r :: rs ->
    let bl = bit names l and br = bit names r in
    rels_and_cross names (rels lor bl lor br)
      (if bl = br then 0 else cross land (bl lor br))
      ls rs
  | _ -> (rels, cross)

let graph (q : Query.t) =
  let n = 1 + List.length q.joins in
  let schemas = Array.make n q.base in
  let conds =
    match q.joins with [] -> [||] | (_, c) :: _ -> Array.make (n - 1) c
  in
  List.iteri
    (fun i (s, c) ->
      schemas.(i + 1) <- s;
      conds.(i) <- c)
    q.joins;
  let names = Array.map Schema.name schemas in
  let usable =
    n < Sys.int_size
    && (let rec distinct i =
          i = n || (index names names.(i) = i && distinct (i + 1))
        in
        distinct 0)
  in
  let m = if usable then n - 1 else 0 in
  let rels = Array.make m 0 and cross = Array.make m 0 in
  let touch = Array.make n 0 and near = Array.make n 0 in
  for c = 0 to m - 1 do
    let r, x =
      rels_and_cross names 0 (-1)
        (Joinpath.Cond.left conds.(c))
        (Joinpath.Cond.right conds.(c))
    in
    rels.(c) <- r;
    cross.(c) <- x land r;
    for i = 0 to n - 1 do
      if r land (1 lsl i) <> 0 then begin
        touch.(i) <- touch.(i) lor (1 lsl c);
        near.(i) <- near.(i) lor (r land lnot (1 lsl i))
      end
    done
  done;
  { schemas; names; conds; rels; cross; touch; near; usable }

(* The conditions relation [f] attaches to the [prefix], given the
   conditions already [used]: a nonempty mask, or 0 when it attaches
   none or makes one illegal. *)
let attach g ~prefix ~used f =
  let pending = g.touch.(f) land lnot used in
  let b = 1 lsl f in
  let covered = prefix lor b in
  let attached = ref 0 and legal = ref true in
  for c = 0 to Array.length g.rels - 1 do
    let r = g.rels.(c) in
    if pending land (1 lsl c) <> 0 && r land covered = r then
      if g.cross.(c) land b <> 0 then attached := !attached lor (1 lsl c)
      else legal := false
  done;
  if !legal then !attached else 0

(* Depth-first over the valid left-deep orders: bases in FROM order,
   then at every step the extensions in FROM order, which is the
   sequence [valid_orders] lists. [order.(0 .. d)] is the current
   prefix when [step d] runs; it returns false to prune the prefix.
   [complete ()] runs on every full order and returns false to stop the
   search. *)
let search g order ~step ~complete =
  let n = Array.length g.names in
  let stopped = ref false in
  (* Only a relation [near] the prefix can attach a condition. *)
  let rec extend depth prefix used frontier =
    if depth = n then (if not (complete ()) then stopped := true)
    else
      for f = 0 to n - 1 do
        if (not !stopped) && frontier land (1 lsl f) <> 0 then begin
          let a = attach g ~prefix ~used f in
          if a <> 0 then begin
            order.(depth) <- f;
            if step depth then
              let prefix = prefix lor (1 lsl f) in
              extend (depth + 1) prefix (used lor a)
                ((frontier lor g.near.(f)) land lnot prefix)
          end
        end
      done
  in
  if g.usable then
    for base = 0 to n - 1 do
      if not !stopped then begin
        order.(0) <- base;
        if step 0 then extend 1 (1 lsl base) 0 (g.near.(base) land lnot (1 lsl base))
      end
    done

let is_identity order =
  let rec go i = i = Array.length order || (order.(i) = i && go (i + 1)) in
  go 0

let names_of g order = Array.fold_right (fun i acc -> g.names.(i) :: acc) order []

(* How many orders a search completes or prunes before it stops. *)
let default_max_orders = 720

(* The original order, then up to [max_orders] others, and whether one
   more existed. *)
let orders ?(max_orders = default_max_orders) (q : Query.t) =
  let g = graph q in
  let order = Array.make (Array.length g.names) 0 in
  let found = ref [] and count = ref 0 and truncated = ref false in
  search g order
    ~step:(fun _ -> true)
    ~complete:(fun () ->
      if is_identity order then true
      else if !count < max_orders then begin
        incr count;
        found := names_of g order :: !found;
        true
      end
      else begin
        truncated := true;
        false
      end);
  (Query.relations q :: List.rev !found, !truncated)

let valid_orders ?max_orders q = fst (orders ?max_orders q)

(* ------------------------------------------------------------------ *)
(* The cost model, incrementally: the rows of each prefix and the
   summed rows of its joins, the numbers [Cost.node_rows] gives the
   join nodes of [Query.to_plan] of the reordered query. A leaf is its
   relation's cardinality, scaled once by the select selectivity when
   [Query.to_algebra] pushes a WHERE conjunct to it: a conjunct
   mentioning one relation goes to that relation, one mentioning none
   to the base, one mentioning several stays above the joins. *)
type estimate = {
  g : graph;
  model : Cost.model;
  leaf : float array;  (* rows of relation [i]'s leaf past the base *)
  first : float array;  (* ... as the base *)
  order : int array;
  rows : float array;  (* rows.(d): rows of the prefix order.(0 .. d) *)
  sums : float array;  (* sums.(d): its summed join rows *)
}

let estimator model (q : Query.t) =
  let g = graph q in
  let n = Array.length g.names in
  let selected = ref 0 and anywhere = ref false in
  let rec mentions acc = function
    | Predicate.True -> acc
    | Predicate.Cmp (a, _, Const _) -> acc lor bit g.names a
    | Predicate.Cmp (a, _, Attr b) -> acc lor bit g.names a lor bit g.names b
    | Predicate.And (p, p') | Predicate.Or (p, p') ->
      mentions (mentions acc p) p'
    | Predicate.Not p -> mentions acc p
  in
  let rec conjuncts = function
    | Predicate.True -> ()
    | Predicate.And (p, p') ->
      conjuncts p;
      conjuncts p'
    | p ->
      let m = mentions 0 p in
      if m = 0 then anywhere := true
      else if m land (m - 1) = 0 then selected := !selected lor m
  in
  if g.usable then conjuncts q.where;
  let sel = model.Cost.select_selectivity in
  let leaf = Array.make n 0.0 and first = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let card = model.card g.names.(i) in
    let pushed = !selected land (1 lsl i) <> 0 in
    leaf.(i) <- (if pushed then sel *. card else card);
    first.(i) <- (if pushed || !anywhere then sel *. card else card)
  done;
  {
    g;
    model;
    leaf;
    first;
    order = Array.make n 0;
    rows = Array.make n 0.0;
    sums = Array.make n 0.0;
  }

let step e d =
  let f = e.order.(d) in
  if d = 0 then begin
    e.rows.(0) <- e.first.(f);
    e.sums.(0) <- 0.0
  end
  else Cost.join_prefix e.model ~rows:e.rows ~sums:e.sums d e.leaf f

let positions g order =
  let n = Array.length g.names in
  let pos = Array.make n (-1) and seen = ref 0 and k = ref 0 in
  List.iter
    (fun name ->
      let i = index g.names name in
      if i < 0 || !k >= n || !seen land (1 lsl i) <> 0 then
        invalid_arg "Optimizer: not a permutation of the FROM clause";
      seen := !seen lor (1 lsl i);
      pos.(!k) <- i;
      incr k)
    order;
  if !k <> n then invalid_arg "Optimizer: not a permutation of the FROM clause";
  pos

let estimate model q order =
  let e = estimator model q in
  if not e.g.usable then
    invalid_arg "Optimizer.estimate: repeated FROM relation or too many";
  let pos = positions e.g order in
  Array.iteri
    (fun d f ->
      e.order.(d) <- f;
      step e d)
    pos;
  e.sums.(Array.length pos - 1)

(* Leaves all alike: every order computes the same rows, so all tie. *)
let alike e =
  let l = e.leaf.(0) in
  Array.for_all (fun r -> r = l) e.leaf && Array.for_all (fun r -> r = l) e.first

let rank model q =
  let e = estimator model q in
  let n = Array.length e.order in
  if (not e.g.usable) || n < 2 || alike e then None
  else begin
    for d = 0 to n - 1 do
      e.order.(d) <- d;
      step e d
    done;
    (* The SQL order is the one to beat: a tie keeps it, so a prefix
       whose joins already sum to the best is pruned. *)
    let best = Array.make 1 e.sums.(n - 1) and best_order = Array.make n (-1) in
    let considered = ref 0 in
    search e.g e.order
      ~step:(fun d ->
        !considered < default_max_orders
        && begin
          step e d;
          d = 0
          || e.sums.(d) < best.(0)
          || begin
            incr considered;
            false
          end
        end)
      ~complete:(fun () ->
        best.(0) <- e.sums.(n - 1);
        Array.blit e.order 0 best_order 0 n;
        incr considered;
        !considered < default_max_orders);
    if best_order.(0) < 0 then None else Some (names_of e.g best_order)
  end

(* ------------------------------------------------------------------ *)

(* Merge the conditions attached at one step into a single equi-join
   condition, oriented with the fresh relation's attributes on the
   right. A single condition keeps its orientation or flips whole:
   every pair crosses, so the fresh relation holds one side of it. *)
let merge_step_conds g attached ~fresh =
  let cs = ref [] in
  for c = Array.length g.conds - 1 downto 0 do
    if attached land (1 lsl c) <> 0 then cs := g.conds.(c) :: !cs
  done;
  match !cs with
  | [ c ] ->
    if String.equal (Attribute.relation (List.hd (Joinpath.Cond.right c))) fresh
    then c
    else Joinpath.Cond.flip c
  | _ ->
    let pairs =
      List.concat_map
        (fun cond ->
          List.map2
            (fun l r ->
              if Attribute.relation r = fresh then (l, r) else (r, l))
            (Joinpath.Cond.left cond) (Joinpath.Cond.right cond))
        !cs
    in
    Joinpath.Cond.make ~left:(List.map fst pairs) ~right:(List.map snd pairs)

let reorder (q : Query.t) order =
  let g = graph q in
  let not_a_permutation () =
    invalid_arg "Optimizer.reorder: not a permutation of the FROM clause"
  in
  if not g.usable then not_a_permutation ();
  let pos = try positions g order with Invalid_argument _ -> not_a_permutation () in
  let prefix = ref (1 lsl pos.(0)) and used = ref 0 and joins = ref [] in
  for k = 1 to Array.length pos - 1 do
    let f = pos.(k) in
    let fresh = g.names.(f) in
    let a = attach g ~prefix:!prefix ~used:!used f in
    if a = 0 then begin
      (* Name the condition that would not cross, as a prefix plus
         [f] covers it; otherwise nothing connected [f]. *)
      let covered = !prefix lor (1 lsl f) in
      Array.iteri
        (fun c r ->
          if
            !used land (1 lsl c) = 0
            && r land (1 lsl f) <> 0
            && r land covered = r
            && g.cross.(c) land (1 lsl f) = 0
          then
            invalid_arg
              (Fmt.str "Optimizer.reorder: condition %a does not cross at %s"
                 Joinpath.Cond.pp g.conds.(c) fresh))
        g.rels;
      invalid_arg
        (Fmt.str "Optimizer.reorder: %s does not connect to the prefix" fresh)
    end;
    joins := (g.schemas.(f), merge_step_conds g a ~fresh) :: !joins;
    prefix := !prefix lor (1 lsl f);
    used := !used lor a
  done;
  Query.permute q ~base:g.schemas.(pos.(0)) ~joins:(List.rev !joins)

let rank_model = Cost.uniform ~card:1000.0

let served query plan_with =
  let in_sql_order () =
    let plan = Query.to_plan query in
    (plan, plan_with plan)
  in
  match rank rank_model query with
  | None -> in_sql_order ()
  | Some order -> (
    let plan = Query.to_plan (reorder query order) in
    match plan_with plan with
    | Ok _ as ok -> (plan, ok)
    | Error _ -> in_sql_order ())

let optimize ?max_orders ?config model catalog policy query =
  let orders, truncated = orders ?max_orders query in
  let original = Query.relations query in
  let explored =
    List.map
      (fun order ->
        let q = if order = original then query else reorder query order in
        let plan = Query.to_plan q in
        let outcome =
          match Safe_planner.plan ?config catalog policy plan with
          | Ok { assignment; _ } ->
            Feasible (assignment, Cost.assignment_cost model catalog plan assignment)
          | Error f -> Infeasible f.Safe_planner.failed_at
        in
        { order; plan; outcome })
      orders
  in
  let best =
    List.fold_left
      (fun best e ->
        match e.outcome, best with
        | Feasible (_, c), Some { outcome = Feasible (_, c'); _ } when c >= c'
          ->
          best
        | Feasible _, _ -> Some e
        | Infeasible _, _ -> best)
      None explored
  in
  { best; explored; truncated }
