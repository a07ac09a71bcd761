open Relalg
open Authz

type option_ = {
  node : int;
  mode : Safe_planner.mode;
  master : Server.t;
  missing : Authorization.t list;
}

type proposal = {
  grants : Authorization.t list;
  assignment : Assignment.t;
  extended : Policy.t;
}

(* Turn a required view into the authorization granting it, when the
   view is expressible as a rule (Definition 3.1 constraints). *)
let grant_for (view : Profile.t) server =
  match
    Authorization.make ~attrs:(Profile.visible view) ~path:view.Profile.join
      server
  with
  | Ok a -> Some a
  | Error _ -> None

(* Missing grants for a set of (view, server) obligations; [None] when
   some obligation cannot be expressed as a rule. *)
let missing_grants policy obligations =
  List.fold_left
    (fun acc (view, server) ->
      match acc with
      | None -> None
      | Some grants ->
        if Policy.can_view policy view server then Some grants
        else
          (match grant_for view server with
           | Some g when not (List.exists (Authorization.equal g) grants) ->
             Some (grants @ [ g ])
           | Some _ -> Some grants
           | None -> None))
    (Some []) obligations

let attr_weight grants =
  List.fold_left
    (fun acc (a : Authorization.t) -> acc + Attribute.Set.cardinal a.attrs)
    0 grants

let explain catalog policy plan (failure : Safe_planner.failure) =
  ignore catalog;
  let node =
    match Plan.node plan failure.failed_at with
    | Some n -> n
    | None -> invalid_arg "Advisor.explain: failure node not in plan"
  in
  match node.Plan.op with
  | Plan.Leaf _ | Plan.Project _ | Plan.Select _ ->
    invalid_arg "Advisor.explain: planning can only fail at a join"
  | Plan.Join (cond, l, r) ->
    let info id =
      match
        List.find_opt
          (fun (i : Safe_planner.node_info) -> i.node = id)
          failure.info
      with
      | Some i -> i
      | None -> invalid_arg "Advisor.explain: child not visited"
    in
    let linfo = info l.Plan.id and rinfo = info r.Plan.id in
    let v = Safety.views cond linfo.profile rinfo.profile in
    let option mode (master : Safe_planner.candidate) obligations =
      Option.map
        (fun missing ->
          { node = node.Plan.id; mode; master = master.server; missing })
        (missing_grants policy obligations)
    in
    (* Regular joins: one obligation per master candidate. *)
    let regular ~(other : Safety.side_views) masters =
      List.filter_map
        (fun m -> option Safe_planner.Regular m [ (other.full, m.server) ])
        masters
    in
    (* Semi-joins: master + slave obligations, one option per pair. *)
    let semi ~(mine : Safety.side_views) masters slaves =
      List.concat_map
        (fun (m : Safe_planner.candidate) ->
          List.filter_map
            (fun (s : Safe_planner.candidate) ->
              if Server.equal m.server s.server then None
              else
                option Safe_planner.Semi m
                  [ (mine.keys, s.server); (mine.semi, m.server) ])
            slaves)
        masters
    in
    let options =
      regular ~other:v.right linfo.candidates
      @ regular ~other:v.left rinfo.candidates
      @ semi ~mine:v.left linfo.candidates rinfo.candidates
      @ semi ~mine:v.right rinfo.candidates linfo.candidates
    in
    List.sort
      (fun a b ->
        match Int.compare (List.length a.missing) (List.length b.missing) with
        | 0 -> Int.compare (attr_weight a.missing) (attr_weight b.missing)
        | c -> c)
      options

let advise catalog policy plan =
  match Safe_planner.plan catalog policy plan with
  | Ok _ -> None
  | Error failure ->
    (* Each repaired join stays repaired, so the failure point moves
       strictly up the tree: the join count bounds the iterations. *)
    let fuel = Plan.join_count plan + 1 in
    let rec repair policy acc failure fuel =
      if fuel = 0 then None
      else
        match explain catalog policy plan failure with
        | [] -> None
        | best :: _ ->
          let policy =
            List.fold_left (fun p g -> Policy.add g p) policy best.missing
          in
          let acc = acc @ best.missing in
          (match Safe_planner.plan catalog policy plan with
           | Ok { assignment; _ } ->
             Some { grants = acc; assignment; extended = policy }
           | Error failure -> repair policy acc failure (fuel - 1))
    in
    repair policy [] failure fuel

let pp_option ppf o =
  Fmt.pf ppf "@[<v 2>n%d as %s at %a, missing:@,%a@]" o.node
    (match o.mode with
     | Safe_planner.Local -> "local join"
     | Safe_planner.Regular -> "regular join"
     | Safe_planner.Semi -> "semi-join"
     | Safe_planner.Coordinated _ -> "coordinated join")
    Server.pp o.master
    Fmt.(list ~sep:(any "@,") Authorization.pp)
    o.missing

let pp_proposal ppf p =
  Fmt.pf ppf "@[<v 2>grant:@,%a@]"
    Fmt.(list ~sep:(any "@,") Authorization.pp)
    p.grants
