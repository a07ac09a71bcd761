open Relalg
open Authz

type payload =
  | Full_result of int
  | Join_attributes of int
  | Semijoin_result of { node : int; slave_child : int }
  | Matched_keys of { node : int; side_child : int }

type flow = {
  at : int;
  sender : Server.t;
  receiver : Server.t;
  profile : Profile.t;
  payload : payload;
}

type error =
  | Unassigned_node of int
  | Leaf_not_at_home of { node : int; expected : Server.t; got : Server.t }
  | Unary_moved of { node : int; expected : Server.t; got : Server.t }
  | Master_not_an_operand of int
  | Slave_not_other_operand of int

let pp_error ppf = function
  | Unassigned_node id -> Fmt.pf ppf "node n%d has no executor" id
  | Leaf_not_at_home { node; expected; got } ->
    Fmt.pf ppf "leaf n%d assigned to %a but stored at %a" node Server.pp got
      Server.pp expected
  | Unary_moved { node; expected; got } ->
    Fmt.pf ppf "unary node n%d assigned to %a but its operand is at %a" node
      Server.pp got Server.pp expected
  | Master_not_an_operand id ->
    Fmt.pf ppf "join n%d: master is neither operand's executor" id
  | Slave_not_other_operand id ->
    Fmt.pf ppf "join n%d: slave is not the other operand's executor" id

(* Profile of the sub-plan rooted at each node (Figure 4, bottom-up). *)
let rec profile_of (n : Plan.node) =
  match n.op with
  | Plan.Leaf schema -> Profile.of_base schema
  | Plan.Project (attrs, c) -> Profile.project attrs (profile_of c)
  | Plan.Select (pred, c) ->
    Profile.select (Predicate.attributes pred) (profile_of c)
  | Plan.Join (cond, l, r) -> Profile.join cond (profile_of l) (profile_of r)

type side = Left | Right

type side_views = {
  full : Profile.t;
  keys : Profile.t;
  semi : Profile.t;
}

type views = {
  left : side_views;
  right : side_views;
  joined : Profile.t;
}

let views cond lp rp =
  let lkeys =
    Profile.project (Attribute.Set.of_list (Joinpath.Cond.left cond)) lp
  and rkeys =
    Profile.project (Attribute.Set.of_list (Joinpath.Cond.right cond)) rp
  in
  {
    left = { full = lp; keys = lkeys; semi = Profile.join cond lkeys rp };
    right = { full = rp; keys = rkeys; semi = Profile.join cond lp rkeys };
    joined = Profile.join cond lp rp;
  }

type protocol =
  | Local
  | Regular of side
  | Semi of side * Server.t
  | Coordinated of side * Server.t * Server.t
  | Proxy

let protocol ?(third_party = false) ~node (exec : Assignment.executor) ~left
    ~right =
  let at_left = Server.equal exec.master left
  and at_right = Server.equal exec.master right in
  if at_left && at_right then Ok Local
  else if not (at_left || at_right) then
    if third_party && exec.slave = None && exec.coordinator = None then
      Ok Proxy
    else Error (Master_not_an_operand node)
  else
    let side = if at_left then Left else Right
    and other = if at_left then right else left in
    match (exec.slave, exec.coordinator) with
    | None, None -> Ok (Regular side)
    | Some slave, None when Server.equal slave other -> Ok (Semi (side, slave))
    | Some slave, Some t when Server.equal slave other ->
      Ok (Coordinated (side, slave, t))
    | _ -> Error (Slave_not_other_operand node)

let ( let* ) = Result.bind

let flows ?third_party catalog plan assignment =
  let find_exec (n : Plan.node) =
    match Assignment.find_opt assignment n.id with
    | Some e -> Ok e
    | None -> Error (Unassigned_node n.id)
  in
  (* [go n acc] puts the flows of [n]'s sub-plan before [acc], last
     first, and gives [n]'s executor and profile to its parent. *)
  let rec go (n : Plan.node) acc =
    let* exec = find_exec n in
    let master = exec.Assignment.master in
    let unary c profile =
      let* acc, at, p = go c acc in
      if Server.equal master at then Ok (acc, master, profile p)
      else Error (Unary_moved { node = n.id; expected = at; got = master })
    in
    match n.op with
    | Plan.Leaf schema ->
      let name = Schema.name schema in
      if Catalog.stores catalog name master then
        Ok (acc, master, Profile.of_base schema)
      else
        let home =
          match Catalog.server_of catalog name with
          | Ok s -> s
          | Error _ -> master
        in
        Error (Leaf_not_at_home { node = n.id; expected = home; got = master })
    | Plan.Project (attrs, c) -> unary c (Profile.project attrs)
    | Plan.Select (pred, c) ->
      unary c (Profile.select (Predicate.attributes pred))
    | Plan.Join (cond, l, r) ->
      let* acc, l_at, lp = go l acc in
      let* acc, r_at, rp = go r acc in
      let* protocol =
        protocol ?third_party ~node:n.id exec ~left:l_at ~right:r_at
      in
      let v = views cond lp rp in
      let flow sender receiver profile payload =
        { at = n.id; sender; receiver; profile; payload }
      in
      (* The master's operand and the other one, with their views. *)
      let operands = function
        | Left -> ((l, v.left), (r, r_at, v.right))
        | Right -> ((r, v.right), (l, l_at, v.left))
      in
      let joined pi = { v.joined with Profile.pi } in
      let fresh =
        match protocol with
        | Local -> []
        | Regular side ->
          let _, (o, o_at, ov) = operands side in
          [ flow o_at master ov.full (Full_result o.id) ]
        | Semi (side, slave) ->
          let (m, mv), (o, _, _) = operands side in
          [
            flow master slave mv.keys (Join_attributes m.id);
            flow slave master mv.semi
              (Semijoin_result { node = n.id; slave_child = o.id });
          ]
        | Coordinated (side, slave, coordinator) ->
          (* Footnote 3, coordinator variant: the third party matches
             the two operands' join columns; the non-master operand is
             reduced accordingly and shipped to the master. *)
          let (m, mv), (o, _, ov) = operands side in
          [
            flow master coordinator mv.keys (Join_attributes m.id);
            flow slave coordinator ov.keys (Join_attributes o.id);
            flow coordinator slave
              (joined ov.keys.Profile.pi)
              (Matched_keys { node = n.id; side_child = o.id });
            flow slave master
              (joined ov.full.Profile.pi)
              (Semijoin_result { node = n.id; slave_child = o.id });
          ]
        | Proxy ->
          (* Footnote 3: an outside master acts as a proxy and receives
             both operands in full. *)
          [
            flow l_at master v.left.full (Full_result l.id);
            flow r_at master v.right.full (Full_result r.id);
          ]
      in
      Ok (List.rev_append fresh acc, master, v.joined)
  in
  let* acc, _, _ = go (Plan.root plan) [] in
  Ok (List.rev acc)

type violation = { flow : flow }

let check ?third_party catalog policy plan assignment =
  match flows ?third_party catalog plan assignment with
  | Error e -> Error (`Structure e)
  | Ok fs ->
    let violations =
      List.filter_map
        (fun f ->
          if Policy.can_view policy f.profile f.receiver then None
          else Some { flow = f })
        fs
    in
    if violations = [] then Ok fs else Error (`Violations violations)

let is_safe ?third_party catalog policy plan assignment =
  match check ?third_party catalog policy plan assignment with
  | Ok _ -> true
  | Error _ -> false

let pp_payload ppf = function
  | Full_result id -> Fmt.pf ppf "result of n%d" id
  | Join_attributes id -> Fmt.pf ppf "join attributes of n%d" id
  | Semijoin_result { node; _ } -> Fmt.pf ppf "semi-join at n%d" node
  | Matched_keys { node; _ } -> Fmt.pf ppf "matched keys at n%d" node

let pp_flow ppf f =
  Fmt.pf ppf "@[<h>n%d: %a -> %a: %a (%a)@]" f.at Server.pp f.sender Server.pp
    f.receiver Profile.pp f.profile pp_payload f.payload

let pp_violation ppf v =
  Fmt.pf ppf "unauthorized flow: %a" pp_flow v.flow
