open Relalg
open Authz

(* Lazily enumerate the options for each sub-plan as a sequence of
   (partial assignment, server holding the result).  Unsafe join modes
   are pruned as soon as they appear, so every complete assignment in
   the sequence is safe by construction. [go] threads each sub-plan's
   profile up the walk, as [Safety.flows] does, so each join's views
   are computed once, and a join's right operand enumerates its options
   once, whatever the number of left options they pair with. *)
let options catalog policy plan =
  let can_view = Policy.can_view policy in
  let rec go (n : Plan.node) : Profile.t * (Assignment.t * Server.t) Seq.t =
    match n.op with
    | Plan.Leaf schema ->
      let homes =
        match Catalog.servers_of catalog (Schema.name schema) with
        | Ok servers -> servers
        | Error e ->
          invalid_arg
            (Fmt.str "Exhaustive: leaf %s: %a" (Schema.name schema)
               Catalog.pp_error e)
      in
      ( Profile.of_base schema,
        List.to_seq homes
        |> Seq.map (fun home ->
               (Assignment.set n.id (Assignment.executor home) Assignment.empty,
                home)) )
    | Plan.Project (attrs, c) -> unary n (Profile.project attrs) c
    | Plan.Select (pred, c) ->
      unary n (Profile.select (Predicate.attributes pred)) c
    | Plan.Join (cond, l, r) ->
      let lp, lopts = go l and rp, ropts = go r in
      let v = Safety.views cond lp rp and ropts = Seq.memoize ropts in
      let merge al ar = Assignment.(
        List.fold_left (fun acc (id, e) -> set id e acc) al (bindings ar))
      in
      ( v.joined,
        Seq.concat_map
          (fun (al, sl) ->
            Seq.concat_map
              (fun (ar, sr) ->
                let base = merge al ar in
                let with_exec master slave =
                  (Assignment.set n.id (Assignment.executor ?slave master) base,
                   master)
                in
                if Server.equal sl sr then
                  (* Both operands are local: the join is free and runs
                     as a (degenerate) regular join at that server. *)
                  Seq.return (with_exec sl None)
                else
                  let modes =
                    [
                      (* regular join, left operand's server is master *)
                      (if can_view v.right.full sl then Some (with_exec sl None)
                       else None);
                      (* regular join, right master *)
                      (if can_view v.left.full sr then Some (with_exec sr None)
                       else None);
                      (* semi-join, left master / right slave *)
                      (if can_view v.left.keys sr && can_view v.left.semi sl
                       then Some (with_exec sl (Some sr))
                       else None);
                      (* semi-join, right master / left slave *)
                      (if can_view v.right.keys sl && can_view v.right.semi sr
                       then Some (with_exec sr (Some sl))
                       else None);
                    ]
                  in
                  List.to_seq (List.filter_map Fun.id modes))
              ropts)
          lopts )
  (* A unary operation runs where its operand's result is. *)
  and unary n profile c =
    let p, opts = go c in
    ( profile p,
      Seq.map
        (fun (a, s) -> (Assignment.set n.id (Assignment.executor s) a, s))
        opts )
  in
  snd (go (Plan.root plan))

let safe_assignments ?(max_results = 100_000) catalog policy plan =
  options catalog policy plan
  |> Seq.take max_results
  |> Seq.map fst
  |> List.of_seq

let feasible catalog policy plan =
  not (Seq.is_empty (options catalog policy plan))

let min_cost model catalog policy plan =
  Seq.fold_left
    (fun best (a, _) ->
      let c = Cost.assignment_cost model catalog plan a in
      match best with
      | Some (_, c') when c' <= c -> best
      | _ -> Some (a, c))
    None
    (options catalog policy plan)

let count_safe ?(max_results = 100_000) catalog policy plan =
  options catalog policy plan
  |> Seq.take max_results
  |> Seq.fold_left (fun n _ -> n + 1) 0
