open Relalg

type kind =
  | Proxy
  | Coordinator

type rescue = {
  node : int;
  helper : Server.t;
  kind : kind;
}

type result = {
  assignment : Assignment.t;
  rescues : rescue list;
  trace : Safe_planner.trace;
}

type failure = { failed_at : int }

(* A join was rescued when it decodes, in third-party mode, as a proxy
   or a coordinated join. A join with an unassigned node among it and
   its operands is skipped: the assignment is incomplete, which
   [Safety.flows] reports; so is an invalid join. *)
let rescues_of plan assignment =
  let exec (m : Plan.node) = Assignment.find_opt assignment m.id in
  List.filter_map
    (fun (n : Plan.node) ->
      match n.op with
      | Plan.Join (_, l, r) -> (
        match (exec n, exec l, exec r) with
        | Some e, Some el, Some er -> (
          match
            Safety.protocol ~third_party:true ~node:n.id e ~left:el.master
              ~right:er.master
          with
          | Ok (Coordinated (_, _, t)) ->
            Some { node = n.id; helper = t; kind = Coordinator }
          | Ok Proxy -> Some { node = n.id; helper = e.master; kind = Proxy }
          | Ok (Local | Regular _ | Semi _) | Error _ -> None)
        | _ -> None)
      | Plan.Leaf _ | Plan.Project _ | Plan.Select _ -> None)
    (Plan.nodes plan)

let plan ?excluded ?closed ~helpers catalog policy p =
  match Safe_planner.plan ~helpers ?excluded ?closed catalog policy p with
  | Ok { assignment; trace } ->
    Ok { assignment; rescues = rescues_of p assignment; trace }
  | Error (f : Safe_planner.failure) ->
    Error { failed_at = f.failed_at }

let pp_rescue ppf r =
  Fmt.pf ppf "join n%d rescued by third party %a (as %s)" r.node Server.pp
    r.helper
    (match r.kind with Proxy -> "proxy" | Coordinator -> "coordinator")
