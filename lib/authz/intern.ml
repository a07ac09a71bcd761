open Relalg

(* The default polymorphic hash ([Hashtbl.hash]) samples only 10
   meaningful nodes, so the long canonical lists of wide derived
   rules — which share sorted prefixes within a server — would all
   collide and the interner would degrade to linear list scans.
   Hash deep enough to cover any realistic repr instead. *)
module Deep (K : sig
  type t
end) =
Hashtbl.Make (struct
  type t = K.t

  let equal = ( = )
  let hash x = Hashtbl.hash_param 500 1000 x
end)

(* One interner: [tbl] maps each distinct key to the id it was first
   given, ids counting up from 0. *)
let intern find add tbl count key =
  match find tbl key with
  | Some id -> id
  | None ->
    let id = !count in
    incr count;
    add tbl key id;
    id

module Path_tbl = Deep (struct
  type t = (Attribute.t * Attribute.t) list list
end)

let path_tbl : int Path_tbl.t = Path_tbl.create 256
let path_count = ref 0

(* [conditions] is sorted and [Cond.pairs] is the canonical oriented
   form, so equal paths always produce structurally equal reprs. *)
let path_repr p = List.map Joinpath.Cond.pairs (Joinpath.conditions p)

let path_id p =
  intern Path_tbl.find_opt Path_tbl.add path_tbl path_count (path_repr p)

let find_path p = Path_tbl.find_opt path_tbl (path_repr p)

module Attrs_tbl = Deep (struct
  type t = Attribute.t list
end)

let attrs_tbl : int Attrs_tbl.t = Attrs_tbl.create 256
let attrs_count = ref 0

let attrs_id a =
  intern Attrs_tbl.find_opt Attrs_tbl.add attrs_tbl attrs_count
    (Attribute.Set.elements a)

module Cond_tbl = Deep (struct
  type t = (Attribute.t * Attribute.t) list
end)

let cond_tbl : int Cond_tbl.t = Cond_tbl.create 64
let cond_count = ref 0

let cond_id c =
  intern Cond_tbl.find_opt Cond_tbl.add cond_tbl cond_count
    (Joinpath.Cond.pairs c)

(* Keys here are (server, small int, small int) — the default hash
   covers them fully. *)
let rule_tbl : (Server.t * int * int, int) Hashtbl.t = Hashtbl.create 256
let rule_count = ref 0

let rule_id_of server ~attrs_id ~path_id =
  intern Hashtbl.find_opt Hashtbl.add rule_tbl rule_count
    (server, attrs_id, path_id)

let profile_tbl : (int * int * int, int) Hashtbl.t = Hashtbl.create 256
let profile_count = ref 0

let profile_id_of ~pi_id ~path_id ~sigma_id =
  intern Hashtbl.find_opt Hashtbl.add profile_tbl profile_count
    (pi_id, path_id, sigma_id)
