open Relalg

type t = {
  attrs : Attribute.Set.t;
  path : Joinpath.t;
  server : Server.t;
  id : int;
  attrs_id : int;
  path_id : int;
}

type error =
  | Empty_attributes
  | Attributes_not_covered of Attribute.Set.t
  | Multiple_relations_without_path of string list

let pp_error ppf = function
  | Empty_attributes -> Fmt.string ppf "authorization releases no attribute"
  | Attributes_not_covered attrs ->
    Fmt.pf ppf
      "attributes %a belong to relations not included in the join path"
      Attribute.Set.pp attrs
  | Multiple_relations_without_path rels ->
    Fmt.pf ppf
      "attributes span relations %a but the join path is empty"
      Fmt.(list ~sep:(any ", ") string)
      rels

let owners attrs =
  Attribute.Set.elements attrs
  |> List.map Attribute.relation
  |> List.sort_uniq String.compare

(* The only place a rule is built: every rule carries its interned
   ids from birth, so no reader re-derives them. *)
let interned ~attrs ~path server =
  let attrs_id = Intern.attrs_id attrs and path_id = Intern.path_id path in
  {
    attrs;
    path;
    server;
    id = Intern.rule_id_of server ~attrs_id ~path_id;
    attrs_id;
    path_id;
  }

let make ~attrs ~path server =
  let ok () = Ok (interned ~attrs ~path server) in
  if Attribute.Set.is_empty attrs then Error Empty_attributes
  else if Joinpath.is_empty path then (
    match owners attrs with
    | [] | [ _ ] -> ok ()
    | rels -> Error (Multiple_relations_without_path rels))
  else
    let path_rels = Joinpath.relations path in
    let uncovered =
      Attribute.Set.filter
        (fun a -> not (List.mem (Attribute.relation a) path_rels))
        attrs
    in
    if Attribute.Set.is_empty uncovered then ok ()
    else Error (Attributes_not_covered uncovered)

let make_exn ~attrs ~path server =
  match make ~attrs ~path server with
  | Ok t -> t
  | Error e -> invalid_arg (Fmt.str "Authorization.make: %a" pp_error e)

let make_denial ~attrs ~path server =
  if Attribute.Set.is_empty attrs then
    invalid_arg "Authorization.make_denial: empty attribute set";
  interned ~attrs ~path server

let relations t =
  List.sort_uniq String.compare (owners t.attrs @ Joinpath.relations t.path)

let compare a b =
  if a == b then 0
  else
    match Server.compare a.server b.server with
  | 0 ->
    (match Attribute.Set.compare a.attrs b.attrs with
     | 0 -> Joinpath.compare a.path b.path
     | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp ppf t =
  Fmt.pf ppf "@[<h>[%a, %a] -> %a@]" Attribute.Set.pp t.attrs Joinpath.pp
    t.path Server.pp t.server

let to_string = Fmt.to_to_string pp
