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

(* The condition of a join node, oriented so that its left attributes
   come from the left child. [Plan.of_algebra] validated that one
   orientation fits. *)
let oriented_cond cond (l : Plan.node) =
  let lout = Plan.output l in
  if
    List.for_all (fun a -> Attribute.Set.mem a lout) (Joinpath.Cond.left cond)
  then cond
  else Joinpath.Cond.flip cond

let ( let* ) = Result.bind

let flows ?(third_party = false) catalog plan assignment =
  let find_exec (n : Plan.node) =
    match Assignment.find_opt assignment n.id with
    | Some e -> Ok e
    | None -> Error (Unassigned_node n.id)
  in
  let rec go (n : Plan.node) =
    let* exec = find_exec n in
    match n.op with
    | Plan.Leaf schema ->
      let name = Schema.name schema in
      if Catalog.stores catalog name exec.Assignment.master then Ok []
      else
        let home =
          match Catalog.server_of catalog name with
          | Ok s -> s
          | Error _ -> exec.Assignment.master
        in
        Error
          (Leaf_not_at_home { node = n.id; expected = home; got = exec.master })
    | Plan.Project (_, c) | Plan.Select (_, c) ->
      let* child_flows = go c in
      let* child_exec = find_exec c in
      if Server.equal exec.Assignment.master child_exec.Assignment.master then
        Ok child_flows
      else
        Error
          (Unary_moved
             {
               node = n.id;
               expected = child_exec.master;
               got = exec.master;
             })
    | Plan.Join (cond, l, r) ->
      let* lf = go l in
      let* rf = go r in
      let* l_exec = find_exec l in
      let* r_exec = find_exec r in
      let inherited = lf @ rf in
      let cond = oriented_cond cond l in
      let l_prof = profile_of l and r_prof = profile_of r in
      let master = exec.Assignment.master in
      let l_server = l_exec.Assignment.master
      and r_server = r_exec.Assignment.master in
      if Server.equal l_server r_server && Server.equal master l_server then
        (* Both operands already reside at the master: fully local. *)
        Ok inherited
      else
        let join_flows ~master_child_id ~master_side_attrs ~other_side_attrs
            ~master_prof ~other_child_id ~other_server ~other_prof =
          match exec.Assignment.coordinator with
          | Some coordinator ->
            (* Footnote 3, coordinator variant: the third party matches
               the two operands' join columns; the non-master operand is
               reduced accordingly and shipped to the master. *)
            if exec.Assignment.slave <> Some other_server then
              Error (Slave_not_other_operand n.id)
            else
              let joined_info p =
                Profile.make ~pi:p
                  ~join:
                    (Joinpath.add cond
                       (Joinpath.union master_prof.Profile.join
                          other_prof.Profile.join))
                  ~sigma:
                    (Attribute.Set.union master_prof.Profile.sigma
                       other_prof.Profile.sigma)
              in
              Ok
                [
                  {
                    at = n.id;
                    sender = master;
                    receiver = coordinator;
                    profile = Profile.project master_side_attrs master_prof;
                    payload = Join_attributes master_child_id;
                  };
                  {
                    at = n.id;
                    sender = other_server;
                    receiver = coordinator;
                    profile = Profile.project other_side_attrs other_prof;
                    payload = Join_attributes other_child_id;
                  };
                  {
                    at = n.id;
                    sender = coordinator;
                    receiver = other_server;
                    profile = joined_info other_side_attrs;
                    payload = Matched_keys { node = n.id; side_child = other_child_id };
                  };
                  {
                    at = n.id;
                    sender = other_server;
                    receiver = master;
                    profile = joined_info other_prof.Profile.pi;
                    payload =
                      Semijoin_result
                        { node = n.id; slave_child = other_child_id };
                  };
                ]
          | None ->
          match exec.Assignment.slave with
          | None ->
            (* Regular join: the other operand ships its result. *)
            Ok
              [
                {
                  at = n.id;
                  sender = other_server;
                  receiver = master;
                  profile = other_prof;
                  payload = Full_result other_child_id;
                };
              ]
          | Some slave ->
            if not (Server.equal slave other_server) then
              Error (Slave_not_other_operand n.id)
            else
              let attrs_profile =
                Profile.project master_side_attrs master_prof
              in
              let back_profile =
                Profile.join cond
                  (Profile.project master_side_attrs master_prof)
                  other_prof
              in
              Ok
                [
                  {
                    at = n.id;
                    sender = master;
                    receiver = slave;
                    profile = attrs_profile;
                    payload = Join_attributes master_child_id;
                  };
                  {
                    at = n.id;
                    sender = slave;
                    receiver = master;
                    profile = back_profile;
                    payload =
                      Semijoin_result
                        { node = n.id; slave_child = other_child_id };
                  };
                ]
        in
        let jl = Attribute.Set.of_list (Joinpath.Cond.left cond) in
        let jr = Attribute.Set.of_list (Joinpath.Cond.right cond) in
        let* new_flows =
          if Server.equal master l_server then
            join_flows ~master_child_id:l.id ~master_side_attrs:jl
              ~other_side_attrs:jr ~master_prof:l_prof ~other_child_id:r.id
              ~other_server:r_server ~other_prof:r_prof
          else if Server.equal master r_server then
            join_flows ~master_child_id:r.id ~master_side_attrs:jr
              ~other_side_attrs:jl ~master_prof:r_prof ~other_child_id:l.id
              ~other_server:l_server ~other_prof:l_prof
          else if third_party && exec.Assignment.slave = None then
            (* Footnote 3: an outside master acts as a proxy and
               receives both operands in full. *)
            Ok
              [
                {
                  at = n.id;
                  sender = l_server;
                  receiver = master;
                  profile = l_prof;
                  payload = Full_result l.id;
                };
                {
                  at = n.id;
                  sender = r_server;
                  receiver = master;
                  profile = r_prof;
                  payload = Full_result r.id;
                };
              ]
          else Error (Master_not_an_operand n.id)
        in
        Ok (inherited @ new_flows)
  in
  go (Plan.root plan)

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
