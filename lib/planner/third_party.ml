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

(* A join was rescued when its master is neither operand's executor
   (proxy) or when a coordinator was recorded. A join with an
   unassigned node among it and its operands is skipped: the assignment
   is incomplete, which [Safety.flows] reports. *)
let rescues_of plan assignment =
  let exec (m : Plan.node) = Assignment.find_opt assignment m.id in
  List.filter_map
    (fun (n : Plan.node) ->
      match n.op with
      | Plan.Join (_, l, r) -> (
        match (exec n, exec l, exec r) with
        | Some { coordinator = Some t; _ }, _, _ ->
          Some { node = n.id; helper = t; kind = Coordinator }
        | Some { master; _ }, Some el, Some er ->
          if Server.equal master el.master || Server.equal master er.master
          then None
          else Some { node = n.id; helper = master; kind = Proxy }
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
