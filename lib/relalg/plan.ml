type node = {
  id : int;
  op : op;
}

and op =
  | Leaf of Schema.t
  | Project of Attribute.Set.t * node
  | Select of Predicate.t * node
  | Join of Joinpath.Cond.t * node * node

type t = {
  root : node;
  all : node list;  (* by increasing id *)
}

(* Breadth-first numbering, the n0..n6 labels of the paper's Figures 2
   and 7: a node's id is its position in the breadth-first queue, so
   one pass over the queue records where each node's children start,
   and the sided tree is then rebuilt depth-first with those ids. *)
let of_algebra expr =
  let expr =
    match Algebra.sided expr with
    | Ok e -> e
    | Error err -> invalid_arg (Fmt.str "Plan.of_algebra: %a" Algebra.pp_error err)
  in
  let size = Algebra.size expr in
  let first_child = Array.make size 0 in
  let queue = Queue.create () in
  Queue.add expr queue;
  let next = ref 1 in
  for id = 0 to size - 1 do
    first_child.(id) <- !next;
    match Queue.pop queue with
    | Algebra.Relation _ -> ()
    | Algebra.Project (_, c) | Algebra.Select (_, c) ->
      Queue.add c queue;
      incr next
    | Algebra.Join (_, l, r) ->
      Queue.add l queue;
      Queue.add r queue;
      next := !next + 2
  done;
  let rec build id e =
    let c = first_child.(id) in
    match e with
    | Algebra.Relation schema -> { id; op = Leaf schema }
    | Algebra.Project (attrs, e) -> { id; op = Project (attrs, build c e) }
    | Algebra.Select (pred, e) -> { id; op = Select (pred, build c e) }
    | Algebra.Join (cond, l, r) ->
      { id; op = Join (cond, build c l, build (c + 1) r) }
  in
  let root = build 0 expr in
  let by_id = Array.make size root in
  let rec place n =
    by_id.(n.id) <- n;
    match n.op with
    | Leaf _ -> ()
    | Project (_, c) | Select (_, c) -> place c
    | Join (_, l, r) ->
      place l;
      place r
  in
  place root;
  { root; all = Array.to_list by_id }

let rec to_algebra n =
  match n.op with
  | Leaf schema -> Algebra.Relation schema
  | Project (attrs, c) -> Algebra.Project (attrs, to_algebra c)
  | Select (pred, c) -> Algebra.Select (pred, to_algebra c)
  | Join (cond, l, r) -> Algebra.Join (cond, to_algebra l, to_algebra r)

let to_algebra t = to_algebra t.root
let root t = t.root
let nodes t = t.all
let node t id = List.find_opt (fun n -> n.id = id) t.all
let size t = List.length t.all

let join_count t =
  List.length
    (List.filter (fun n -> match n.op with Join _ -> true | _ -> false) t.all)

let rec output n =
  match n.op with
  | Leaf schema -> Schema.attribute_set schema
  | Project (attrs, _) -> attrs
  | Select (_, c) -> output c
  | Join (_, l, r) -> Attribute.Set.union (output l) (output r)

let label n = Printf.sprintf "n%d" n.id

let relations t =
  let rec go n acc =
    match n.op with
    | Leaf schema -> Schema.name schema :: acc
    | Project (_, c) | Select (_, c) -> go c acc
    | Join (_, l, r) -> go l (go r acc)
  in
  go t.root []

let children n =
  match n.op with
  | Leaf _ -> []
  | Project (_, c) | Select (_, c) -> [ c ]
  | Join (_, l, r) -> [ l; r ]

let pp_op ppf n =
  match n.op with
  | Leaf schema -> Fmt.pf ppf "%s" (Schema.name schema)
  | Project (attrs, c) ->
    Fmt.pf ppf "\xcf\x80%a (%s)" Attribute.Set.pp attrs (label c)
  | Select (pred, c) -> Fmt.pf ppf "\xcf\x83[%a] (%s)" Predicate.pp pred (label c)
  | Join (cond, l, r) ->
    Fmt.pf ppf "\xe2\x8b\x88[%a] (%s, %s)" Joinpath.Cond.pp_sql cond (label l)
      (label r)

let pp ppf t =
  let pp_node ppf n = Fmt.pf ppf "%s: %a" (label n) pp_op n in
  Fmt.(list ~sep:(any "@\n") pp_node) ppf t.all

let pp_tree ppf t =
  let rec go ppf n =
    match n.op with
    | Leaf schema -> Fmt.pf ppf "%s: %s" (label n) (Schema.name schema)
    | Project (attrs, c) ->
      Fmt.pf ppf "@[<v 2>%s: \xcf\x80 %a@,%a@]" (label n) Attribute.Set.pp
        attrs go c
    | Select (pred, c) ->
      Fmt.pf ppf "@[<v 2>%s: \xcf\x83 %a@,%a@]" (label n) Predicate.pp pred go
        c
    | Join (cond, l, r) ->
      Fmt.pf ppf "@[<v 2>%s: \xe2\x8b\x88 %a@,%a@,%a@]" (label n)
        Joinpath.Cond.pp_sql cond go l go r
  in
  go ppf t.root

let to_string = Fmt.to_to_string pp
