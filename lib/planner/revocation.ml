open Authz

(* Chase-aware revocation: feasibility of "policy minus rule" must be
   judged against the closure of the shrunk policy (a revoked rule
   also takes down every derivation it supported). The closure is
   computed once, on a shared handle, and each candidate removal is a
   [Chase.revoke] from it, which re-closes only the candidate's server. *)
let forced ~joins policy =
  let closed = Chase.closed_policy ~joins policy in
  ignore (Chase.closure closed);
  closed

let load_bearing ?joins catalog policy plan =
  let closed = Option.map (fun joins -> forced ~joins policy) joins in
  let feasible_without =
    match closed with
    | None ->
      fun rule -> Safe_planner.feasible catalog (Policy.remove rule policy) plan
    | Some c ->
      fun rule ->
        Safe_planner.feasible ~closed:(Chase.revoke rule c) catalog policy plan
  in
  if not (Safe_planner.feasible ?closed catalog policy plan) then []
  else
    List.filter
      (fun rule -> not (feasible_without rule))
      (Policy.authorizations policy)

type impact = {
  rule : Authorization.t;
  total : int;
  broken : int;
}

let impact ?joins catalog policy plans =
  let closed = Option.map (fun joins -> forced ~joins policy) joins in
  let feasible_plans =
    List.filter
      (fun p -> Safe_planner.feasible ?closed catalog policy p)
      plans
  in
  let total = List.length feasible_plans in
  Policy.authorizations policy
  |> List.map (fun rule ->
         let feasible_without =
           match closed with
           | None ->
             let without = Policy.remove rule policy in
             fun p -> Safe_planner.feasible catalog without p
           | Some c ->
             let closed = Chase.revoke rule c in
             fun p -> Safe_planner.feasible ~closed catalog policy p
         in
         let broken =
           List.length
             (List.filter (fun p -> not (feasible_without p)) feasible_plans)
         in
         { rule; total; broken })
  |> List.sort (fun a b ->
         match Int.compare b.broken a.broken with
         | 0 -> Authorization.compare a.rule b.rule
         | c -> c)

let pp_impact ppf i =
  Fmt.pf ppf "%a breaks %d/%d plans" Authorization.pp i.rule i.broken i.total
