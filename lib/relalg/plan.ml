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

(* Breadth-first numbering: nodes are rebuilt bottom-up after ids have
   been assigned level by level, matching the n0..n6 labels of the
   paper's Figures 2 and 7. *)
let of_algebra expr =
  (match Algebra.validate expr with
   | Ok () -> ()
   | Error err -> invalid_arg (Fmt.str "Plan.of_algebra: %a" Algebra.pp_error err));
  (* First pass: assign ids breadth-first over the algebra tree. *)
  let ids : (Algebra.t * int) list ref = ref [] in
  let queue = Queue.create () in
  Queue.add expr queue;
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let e = Queue.pop queue in
    ids := (e, !next) :: !ids;
    incr next;
    (match e with
     | Algebra.Relation _ -> ()
     | Algebra.Project (_, child) | Algebra.Select (_, child) ->
       Queue.add child queue
     | Algebra.Join (_, l, r) ->
       Queue.add l queue;
       Queue.add r queue)
  done;
  let id_of e =
    (* Physical identity distinguishes structurally equal sub-trees. *)
    let rec find = function
      | (e', id) :: rest -> if e' == e then id else find rest
      | [] -> assert false
    in
    find !ids
  in
  let rec build e =
    let id = id_of e in
    match e with
    | Algebra.Relation schema -> { id; op = Leaf schema }
    | Algebra.Project (attrs, child) ->
      { id; op = Project (attrs, build child) }
    | Algebra.Select (pred, child) -> { id; op = Select (pred, build child) }
    | Algebra.Join (cond, l, r) -> { id; op = Join (cond, build l, build r) }
  in
  let root = build expr in
  let rec collect n acc =
    let acc = n :: acc in
    match n.op with
    | Leaf _ -> acc
    | Project (_, c) | Select (_, c) -> collect c acc
    | Join (_, l, r) -> collect r (collect l acc)
  in
  let all =
    collect root [] |> List.sort (fun a b -> Int.compare a.id b.id)
  in
  { root; all }

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
