open Relalg
module D = Diagnostic
module P = Planner

let lint ?(third_party = false) ?model catalog policy plan assignment =
  let model =
    match model with Some m -> m | None -> P.Cost.uniform ~card:1000.0
  in
  let cost a = P.Cost.assignment_cost ~third_party model catalog plan a in
  let safe a = P.Safety.is_safe ~third_party catalog policy plan a in
  (* Unary nodes ride with their operand (Definition 4.1), so retargeting
     a join's master must drag the chain of Project/Select ancestors
     along or the variant would be structurally invalid for a reason
     that has nothing to do with the suggestion. *)
  let parent =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (n : Plan.node) ->
        List.iter
          (fun (c : Plan.node) -> Hashtbl.replace tbl c.Plan.id n)
          (Plan.children n))
      (Plan.nodes plan);
    fun id -> Hashtbl.find_opt tbl id
  in
  let with_executor id e assignment =
    let rec drag id asg =
      match parent id with
      | Some ({ Plan.op = Plan.Project _ | Plan.Select _; _ } as p) ->
        drag p.Plan.id
          (P.Assignment.set p.Plan.id
             (P.Assignment.executor e.P.Assignment.master)
             asg)
      | _ -> asg
    in
    drag id (P.Assignment.set id e assignment)
  in
  let lint_join (n : Plan.node) l r =
    match
      ( P.Assignment.find_opt assignment n.Plan.id,
        P.Assignment.find_opt assignment l.Plan.id,
        P.Assignment.find_opt assignment r.Plan.id )
    with
    | Some exec, Some le, Some re -> (
      let m = exec.P.Assignment.master in
      let l_server = le.P.Assignment.master
      and r_server = re.P.Assignment.master in
      (* Third party in play: would an operand's executor do? *)
      let third_party_used tp =
        let candidates =
          [ (l_server, r_server); (r_server, l_server) ]
          |> List.concat_map (fun (master, other) ->
                 [
                   P.Assignment.executor master;
                   P.Assignment.executor ~slave:other master;
                 ])
        in
        match
          List.find_opt
            (fun e -> safe (with_executor n.Plan.id e assignment))
            candidates
        with
        | None -> []
        | Some e ->
          [
            D.make "CISQP021" (D.Node n.Plan.id)
              "third party %s is used although operand server %s can execute \
               the join safely"
              (Server.name tp)
              (Server.name e.P.Assignment.master);
          ]
      in
      match
        P.Safety.protocol ~third_party ~node:n.Plan.id exec ~left:l_server
          ~right:r_server
      with
      | Ok (Coordinated (_, _, t)) -> third_party_used t
      | Ok Proxy -> third_party_used m
      | Ok (Regular side) ->
        (* Cross-server regular join: try the semi-join variant. *)
        let other = if side = Left then r_server else l_server in
        let variant =
          with_executor n.Plan.id (P.Assignment.executor ~slave:other m)
            assignment
        in
        if safe variant then
          let here = cost assignment and there = cost variant in
          if there < here then
            [
              D.make "CISQP020" (D.Node n.Plan.id)
                "regular join ships a full operand; the authorized semi-join \
                 with slave %s would move ~%.0f bytes instead of ~%.0f"
                (Server.name other) there here;
            ]
          else []
        else []
      | Ok (Local | Semi _) | Error _ -> [])
    | _ -> [] (* unassigned nodes and structural errors are the script verifier's business *)
  in
  Plan.nodes plan
  |> List.concat_map (fun (n : Plan.node) ->
         match n.Plan.op with
         | Plan.Join (_, l, r) -> lint_join n l r
         | _ -> [])
