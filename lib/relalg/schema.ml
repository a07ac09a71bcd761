type t = {
  name : string;
  attributes : Attribute.t list;
  attribute_set : Attribute.Set.t;
  key : Attribute.t list;
}

let check_distinct name attrs =
  let sorted = List.sort String.compare attrs in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  match dup sorted with
  | Some a ->
    invalid_arg
      (Printf.sprintf "Schema.make: duplicate attribute %S in relation %S" a
         name)
  | None -> ()

let make name ~key attrs =
  if name = "" then invalid_arg "Schema.make: empty relation name";
  if attrs = [] then
    invalid_arg
      (Printf.sprintf "Schema.make: relation %S has no attributes" name);
  check_distinct name attrs;
  let missing = List.filter (fun k -> not (List.mem k attrs)) key in
  (match missing with
   | k :: _ ->
     invalid_arg
       (Printf.sprintf "Schema.make: key attribute %S not in relation %S" k
          name)
   | [] -> ());
  let mk n = Attribute.make ~relation:name n in
  let attributes = List.map mk attrs in
  {
    name;
    attributes;
    attribute_set = Attribute.Set.of_list attributes;
    key = List.map mk key;
  }

let name t = t.name
let attributes t = t.attributes
let attribute_set t = t.attribute_set
let key t = t.key

let attribute t n =
  List.find_opt (fun a -> Attribute.name a = n) t.attributes

let mem t a = List.exists (Attribute.equal a) t.attributes
let arity t = List.length t.attributes
let compare a b = String.compare a.name b.name
let equal a b = compare a b = 0

let pp ppf t =
  let pp_attr ppf a =
    if List.exists (Attribute.equal a) t.key then
      Fmt.pf ppf "%a*" Attribute.pp a
    else Attribute.pp ppf a
  in
  Fmt.pf ppf "%s(%a)" t.name Fmt.(list ~sep:(any ", ") pp_attr) t.attributes

let to_string = Fmt.to_to_string pp
