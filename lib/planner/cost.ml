open Relalg

let log_src = Logs.Src.create "cisqp.cost" ~doc:"Planner cost model"

module Log = (val Logs.src_log log_src : Logs.LOG)

type model = {
  card : string -> float;
  join_selectivity : float;
  select_selectivity : float;
  attr_bytes : float;
}

let uniform ~card =
  {
    card = (fun _ -> card);
    (* Key–foreign-key joins match each foreign-key row with exactly
       one key row: selectivity 1/|key domain| = 1/card, so
       |L ⋈ R| = |L|·|R|/card = card when both operands are base
       relations. *)
    join_selectivity = 1.0 /. Float.max 1.0 card;
    select_selectivity = 0.5;
    attr_bytes = 8.0;
  }

(* Standard independence estimate |L ⋈ R| = sel · |L| · |R|, clamped
   to [0, |L|·|R|]: a selectivity is a fraction of the cross product,
   so estimates beyond it (or below zero) are model-configuration
   artefacts, not cardinalities. *)
let[@inline] join_rows model lr rr =
  let cross = lr *. rr in
  Float.max 0.0 (Float.min (model.join_selectivity *. cross) cross)

let join_prefix model ~rows ~sums d leaves f =
  let r = join_rows model rows.(d - 1) leaves.(f) in
  rows.(d) <- r;
  sums.(d) <- sums.(d - 1) +. r

let rec node_rows model (n : Plan.node) =
  match n.op with
  | Plan.Leaf schema -> model.card (Schema.name schema)
  | Plan.Project (_, c) -> node_rows model c
  | Plan.Select (_, c) -> model.select_selectivity *. node_rows model c
  | Plan.Join (_, l, r) -> join_rows model (node_rows model l) (node_rows model r)

let width attrs = float_of_int (Attribute.Set.cardinal attrs)

let flow_bytes model plan (flow : Safety.flow) =
  let node id =
    match Plan.node plan id with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Cost.flow_bytes: unknown node n%d" id)
  in
  let bytes rows attrs = rows *. width attrs *. model.attr_bytes in
  match flow.payload with
  | Safety.Full_result id ->
    let n = node id in
    bytes (node_rows model n) (Plan.output n)
  | Safety.Join_attributes id ->
    (* π_J of the master child: at most its rows, J attributes wide
       (the profile of the flow carries exactly J in pi). *)
    let n = node id in
    bytes (node_rows model n) flow.profile.Authz.Profile.pi
  | Safety.Matched_keys { node = id; side_child } ->
    (* Distinct matching key values: bounded like the semi-join answer,
       but only join-columns wide. *)
    let rows =
      Float.min (node_rows model (node id)) (node_rows model (node side_child))
    in
    bytes rows flow.profile.Authz.Profile.pi
  | Safety.Semijoin_result { node = id; slave_child } ->
    (* The tuples of the slave's operand that participate in the join:
       bounded by the slave operand and by the join result. *)
    let rows =
      Float.min (node_rows model (node id)) (node_rows model (node slave_child))
    in
    bytes rows flow.profile.Authz.Profile.pi

let assignment_cost_checked ?third_party model catalog plan assignment =
  match Safety.flows ?third_party catalog plan assignment with
  | Error e -> Error e
  | Ok flows ->
    Ok (List.fold_left (fun acc f -> acc +. flow_bytes model plan f) 0.0 flows)

let assignment_cost ?third_party model catalog plan assignment =
  match assignment_cost_checked ?third_party model catalog plan assignment with
  | Ok cost -> cost
  | Error e ->
    Log.debug (fun m ->
        m "assignment structurally invalid (%a); costing it at infinity"
          Safety.pp_error e);
    infinity
