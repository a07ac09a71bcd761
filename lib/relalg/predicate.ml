type comparison = Eq | Neq | Lt | Le | Gt | Ge

type operand =
  | Const of Value.t
  | Attr of Attribute.t

type t =
  | True
  | Cmp of Attribute.t * comparison * operand
  | And of t * t
  | Or of t * t
  | Not of t

let comparison_of_string = function
  | "=" -> Some Eq
  | "<>" | "!=" -> Some Neq
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None

let pp_comparison ppf c =
  Fmt.string ppf
    (match c with
     | Eq -> "="
     | Neq -> "<>"
     | Lt -> "<"
     | Le -> "<="
     | Gt -> ">"
     | Ge -> ">=")

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let rec attributes = function
  | True -> Attribute.Set.empty
  | Cmp (a, _, Const _) -> Attribute.Set.singleton a
  | Cmp (a, _, Attr b) -> Attribute.Set.of_list [ a; b ]
  | And (p, q) | Or (p, q) ->
    Attribute.Set.union (attributes p) (attributes q)
  | Not p -> attributes p

let negate_comparison = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(* NULL is uniformly non-matching: a comparison with a NULL operand is
   false whatever the operator — including NULL = NULL and NULL <= NULL
   (reflexivity does not extend to the absent value). *)
let compare_values c va vb =
  match va, vb with
  | Value.Null, _ | _, Value.Null -> false
  | _ ->
    let k = Value.compare va vb in
    (match c with
     | Eq -> k = 0
     | Neq -> k <> 0
     | Lt -> k < 0
     | Le -> k <= 0
     | Gt -> k > 0
     | Ge -> k >= 0)

(* Negation is pushed down to the atoms (De Morgan, with each
   comparison operator flipped), so a NULL-bearing row fails [Not p]
   exactly as it fails [p]: boolean negation of an atom would promote
   "no match because NULL" into a match. *)
let rec eval lookup = function
  | True -> true
  | Cmp (a, c, op) ->
    let va = lookup a in
    let vb = match op with Const v -> v | Attr b -> lookup b in
    compare_values c va vb
  | And (p, q) -> eval lookup p && eval lookup q
  | Or (p, q) -> eval lookup p || eval lookup q
  | Not p -> eval_negated lookup p

and eval_negated lookup = function
  | True -> false
  | Cmp (a, c, op) ->
    let va = lookup a in
    let vb = match op with Const v -> v | Attr b -> lookup b in
    compare_values (negate_comparison c) va vb
  | And (p, q) -> eval_negated lookup p || eval_negated lookup q
  | Or (p, q) -> eval_negated lookup p && eval_negated lookup q
  | Not p -> eval lookup p

(* [eval] with the attributes resolved to row positions up front. *)
let rec compile position = function
  | True -> fun _ -> true
  | Cmp (a, c, op) -> compile_atom position a c op
  | And (p, q) ->
    let p = compile position p and q = compile position q in
    fun row -> p row && q row
  | Or (p, q) ->
    let p = compile position p and q = compile position q in
    fun row -> p row || q row
  | Not p -> compile_negated position p

and compile_negated position = function
  | True -> fun _ -> false
  | Cmp (a, c, op) -> compile_atom position a (negate_comparison c) op
  | And (p, q) ->
    let p = compile_negated position p and q = compile_negated position q in
    fun row -> p row || q row
  | Or (p, q) ->
    let p = compile_negated position p and q = compile_negated position q in
    fun row -> p row && q row
  | Not p -> compile position p

and compile_atom position a c op =
  let i = position a in
  match op with
  | Const v -> fun row -> compare_values c row.(i) v
  | Attr b ->
    let j = position b in
    fun row -> compare_values c row.(i) row.(j)

let rec pp ppf = function
  | True -> Fmt.string ppf "TRUE"
  | Cmp (a, c, Const v) ->
    Fmt.pf ppf "%a %a %a" Attribute.pp a pp_comparison c Value.pp v
  | Cmp (a, c, Attr b) ->
    Fmt.pf ppf "%a %a %a" Attribute.pp a pp_comparison c Attribute.pp b
  | And (p, q) -> Fmt.pf ppf "(%a AND %a)" pp p pp q
  | Or (p, q) -> Fmt.pf ppf "(%a OR %a)" pp p pp q
  | Not p -> Fmt.pf ppf "NOT %a" pp p

let to_string = Fmt.to_to_string pp
