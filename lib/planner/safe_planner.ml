open Relalg
open Authz

type side = Safety.side = Left | Right

type mode =
  | Local
      (** the candidate can execute both operands: the join is
          co-located and entails no view at all *)
  | Regular
  | Semi
  | Coordinated of { coordinator : Server.t; slave : Server.t }
      (** footnote 3's coordinator: the helper matches join columns,
          [slave] (the other operand's executor) ships its reduced
          operand to the master *)

type candidate = {
  server : Server.t;
  fromchild : side option;
  count : int;
  mode : mode;
}

let pp_side ppf = function
  | Left -> Fmt.string ppf "left"
  | Right -> Fmt.string ppf "right"

let pp_candidate ppf c =
  Fmt.pf ppf "[%a, %a, %d%s]" Server.pp c.server
    Fmt.(option ~none:(any "-") pp_side)
    c.fromchild c.count
    (match c.mode with
     | Local -> ", local"
     | Semi -> ", semi"
     | Regular -> ""
     | Coordinated { coordinator; _ } ->
       Fmt.str ", via %a" Server.pp coordinator)

type node_info = {
  node : int;
  profile : Profile.t;
  candidates : candidate list;
  leftslave : candidate option;
  rightslave : candidate option;
}

type trace = {
  visit_order : node_info list;
  assign_order : (int * Assignment.executor) list;
}

type failure = {
  failed_at : int;
  info : node_info list;
}

type result = {
  assignment : Assignment.t;
  trace : trace;
}

type config = {
  allow_semijoins : bool;
  prefer_high_count : bool;
      (** principle ii: order candidates by decreasing join counter;
          disabling it is the EXP-K ablation *)
}

let default_config =
  { allow_semijoins = true; prefer_high_count = true }

exception Infeasible of int

(* Candidates are kept in decreasing-count order (GetFirst returns the
   head); duplicates on (server, fromchild, mode) keep the highest
   count. With [prefer_high_count = false] (the EXP-K ablation) the
   counter is ignored in the ordering. *)
let normalize_candidates ?(prefer_high_count = true) cs =
  let key c = (Server.name c.server, c.fromchild, c.mode) in
  let best = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt best (key c) with
      | Some c' when c'.count >= c.count -> ()
      | _ -> Hashtbl.replace best (key c) c)
    cs;
  let mode_rank = function
    | Local -> 0
    | Semi -> 1
    | Regular -> 2
    | Coordinated _ -> 3
  in
  Hashtbl.fold (fun _ c acc -> c :: acc) best []
  |> List.sort (fun a b ->
         (* Principle ii: higher join count first; principle i:
            semi-joins before regular joins; then name for
            determinism. *)
         let count_cmp =
           if prefer_high_count then Int.compare b.count a.count else 0
         in
         match count_cmp with
         | 0 ->
           (match Int.compare (mode_rank a.mode) (mode_rank b.mode) with
            | 0 -> Server.compare a.server b.server
            | c -> c)
         | c -> c)

let find_candidates ?(helpers = []) ?(excluded = []) ?closed config catalog
    policy plan =
  let available s = not (List.exists (Server.equal s) excluded) in
  let helpers = List.filter available helpers in
  (* Every CanView of the traversal goes through one decision function;
     a chase handle swaps in its cached closure without re-closing. *)
  let policy =
    match closed with
    | Some c -> Chase.closure c
    | None -> policy
  in
  let can_view profile server = Policy.can_view policy profile server in
  let visits = ref [] in
  let infos = Hashtbl.create 16 in
  let record info =
    visits := info :: !visits;
    Hashtbl.replace infos info.node info;
    info
  in
  let rec go (n : Plan.node) : node_info =
    match n.op with
    | Plan.Leaf schema ->
      (* With replication every server holding a copy is a candidate
         (an extension of Definition 4.1, which assumes one copy). *)
      let homes =
        match Catalog.servers_of catalog (Schema.name schema) with
        | Ok servers -> servers
        | Error e ->
          invalid_arg
            (Fmt.str "Safe_planner: leaf %s: %a" (Schema.name schema)
               Catalog.pp_error e)
      in
      (* Failover exclusion: a dead server stores nothing any more. A
         leaf whose every copy is excluded has no candidate — planning
         fails right here, which the caller reports as unrecoverable
         data loss. *)
      let homes = List.filter available homes in
      if homes = [] then raise (Infeasible n.id);
      record
        {
          node = n.id;
          profile = Profile.of_base schema;
          candidates =
            List.map
              (fun home ->
                { server = home; fromchild = None; count = 0; mode = Regular })
              homes;
          leftslave = None;
          rightslave = None;
        }
    | Plan.Project (attrs, c) ->
      let child = go c in
      record
        {
          node = n.id;
          profile = Profile.project attrs child.profile;
          candidates =
            List.map
              (fun cand -> { cand with fromchild = Some Left })
              child.candidates;
          leftslave = None;
          rightslave = None;
        }
    | Plan.Select (pred, c) ->
      let child = go c in
      record
        {
          node = n.id;
          profile =
            Profile.select (Predicate.attributes pred) child.profile;
          candidates =
            List.map
              (fun cand -> { cand with fromchild = Some Left })
              child.candidates;
          leftslave = None;
          rightslave = None;
        }
    | Plan.Join (cond, l, r) ->
      let linfo = go l in
      let rinfo = go r in
      let v = Safety.views cond linfo.profile rinfo.profile in
      (* First viable slave, scanning in decreasing-count order. *)
      let first_slave view cands =
        if not config.allow_semijoins then None
        else List.find_opt (fun c -> can_view view c.server) cands
      in
      (* A slave at one operand receives the other operand's keys. *)
      let leftslave = first_slave v.right.keys linfo.candidates in
      let rightslave = first_slave v.left.keys rinfo.candidates in
      let masters ~slave ~(mine : Safety.side_views)
          ~(other : Safety.side_views) ~from cands =
        List.filter_map
          (fun c ->
            if
              config.allow_semijoins && slave <> None
              && can_view mine.semi c.server
            then
              Some
                { server = c.server; fromchild = Some from;
                  count = c.count + 1; mode = Semi }
            else if can_view other.full c.server then
              Some
                { server = c.server; fromchild = Some from;
                  count = c.count + 1; mode = Regular }
            else None)
          cands
      in
      let from_right =
        masters ~slave:leftslave ~mine:v.right ~other:v.left ~from:Right
          rinfo.candidates
      in
      let from_left =
        masters ~slave:rightslave ~mine:v.left ~other:v.right ~from:Left
          linfo.candidates
      in
      (* Co-location (a correction to the paper's pseudo-code, see
         DESIGN.md): a server candidate for BOTH operands executes the
         join locally; no data crosses a boundary, so Definition 4.2
         holds trivially. This arises with replication or when several
         relations live at one server. *)
      let local =
        List.filter_map
          (fun (cl : candidate) ->
            match
              List.find_opt
                (fun (cr : candidate) -> Server.equal cr.server cl.server)
                rinfo.candidates
            with
            | Some cr ->
              Some
                {
                  server = cl.server;
                  fromchild = Some Left;
                  count = cl.count + cr.count + 1;
                  mode = Local;
                }
            | None -> None)
          linfo.candidates
      in
      let candidates =
        normalize_candidates ~prefer_high_count:config.prefer_high_count
          (local @ from_right @ from_left)
      in
      let candidates =
        if candidates <> [] then candidates
        else
          (* Footnote 3: a third party can rescue the join, either as a
             proxy (it may view both operands in full and both ship to
             it) or as a coordinator (it may view both operands' join
             columns; it matches them, the non-master operand reduces
             itself and ships to the master). *)
          let proxy =
            List.filter_map
              (fun h ->
                if can_view v.left.full h && can_view v.right.full h then
                  Some
                    { server = h; fromchild = None; count = 0; mode = Regular }
                else None)
              helpers
          in
          let joined pi = { v.joined with Profile.pi } in
          let coordinated =
            List.concat_map
              (fun h ->
                (* The coordinator sees exactly the two key views of
                   Figure 5: the join columns of each operand. *)
                if can_view v.left.keys h && can_view v.right.keys h then
                  let masters_from ~from ~(other : Safety.side_views)
                      my_cands other_cands =
                    match
                      List.find_opt
                        (fun c ->
                          can_view (joined other.keys.Profile.pi) c.server)
                        other_cands
                    with
                    | None -> []
                    | Some slave ->
                      List.filter_map
                        (fun c ->
                          if can_view (joined other.full.Profile.pi) c.server
                          then
                            Some
                              {
                                server = c.server;
                                fromchild = Some from;
                                count = c.count + 1;
                                mode =
                                  Coordinated
                                    { coordinator = h; slave = slave.server };
                              }
                          else None)
                        my_cands
                  in
                  masters_from ~from:Left ~other:v.right linfo.candidates
                    rinfo.candidates
                  @ masters_from ~from:Right ~other:v.left rinfo.candidates
                      linfo.candidates
                else [])
              helpers
          in
          normalize_candidates ~prefer_high_count:config.prefer_high_count
            (proxy @ coordinated)
      in
      if candidates = [] then raise (Infeasible n.id);
      record
        { node = n.id; profile = v.joined; candidates; leftslave; rightslave }
  in
  match go (Plan.root plan) with
  | _root_info -> Ok (List.rev !visits, infos)
  | exception Infeasible node -> Error (node, List.rev !visits)

let assign_ex infos plan =
  let assignment = ref Assignment.empty in
  let order = ref [] in
  let info_of (n : Plan.node) : node_info = Hashtbl.find infos n.id in
  let rec go (n : Plan.node) (from_parent : Server.t option) =
    let info = info_of n in
    let chosen =
      match from_parent with
      | Some s ->
        (match
           List.find_opt
             (fun c -> Server.equal c.server s)
             info.candidates
         with
         | Some c -> c
         | None ->
           (* The parent only pushes servers it took from this node's
              candidate list, so this cannot happen. *)
           assert false)
      | None ->
        (match info.candidates with
         | c :: _ -> c
         | [] -> assert false (* Find_candidates would have failed *))
    in
    let is_join = match n.op with Plan.Join _ -> true | _ -> false in
    let slave_candidate =
      if is_join && chosen.mode = Semi then
        match chosen.fromchild with
        | Some Right -> info.leftslave
        | Some Left -> info.rightslave
        | None -> None
      else None
    in
    let slave =
      match chosen.mode, slave_candidate with
      | Coordinated { slave; _ }, _ -> Some slave
      | _, Some sc when not (Server.equal sc.server chosen.server) ->
        Some sc.server
      | _, _ -> None
    in
    let coordinator =
      match chosen.mode with
      | Coordinated { coordinator; _ } when is_join -> Some coordinator
      | Coordinated _ | Semi | Regular | Local -> None
    in
    let executor = Assignment.executor ?slave ?coordinator chosen.server in
    assignment := Assignment.set n.id executor !assignment;
    order := (n.id, executor) :: !order;
    (* Push the master to the child the candidate came from, the slave
       (or NULL) to the other child. The slave candidate's server is
       pushed even when it coincides with the master, so that the other
       operand is computed where the (now local) join happens. *)
    let pushed_slave =
      match chosen.mode with
      | Local when is_join ->
        (* Both operands execute at the chosen server. *)
        Some chosen.server
      | Coordinated { slave; _ } when is_join -> Some slave
      | Coordinated _ | Semi | Regular | Local ->
        Option.map (fun (c : candidate) -> c.server) slave_candidate
    in
    (match n.op, chosen.fromchild with
     | Plan.Leaf _, _ -> ()
     | (Plan.Project (_, c) | Plan.Select (_, c)), _ ->
       go c (Some chosen.server)
     | Plan.Join (_, l, r), Some Left ->
       go l (Some chosen.server);
       go r pushed_slave
     | Plan.Join (_, l, r), Some Right ->
       go l pushed_slave;
       go r (Some chosen.server)
     | Plan.Join (_, l, r), None ->
       (* Third-party proxy: both operands plan independently and ship
          their results to the helper. *)
       go l None;
       go r None)
  in
  go (Plan.root plan) None;
  (!assignment, List.rev !order)

let plan ?(config = default_config) ?helpers ?excluded ?closed catalog policy
    p =
  match find_candidates ?helpers ?excluded ?closed config catalog policy p with
  | Error (node, visits) -> Error { failed_at = node; info = visits }
  | Ok (visit_order, infos) ->
    let assignment, assign_order = assign_ex infos p in
    Ok { assignment; trace = { visit_order; assign_order } }

let feasible ?config ?helpers ?excluded ?closed catalog policy p =
  match plan ?config ?helpers ?excluded ?closed catalog policy p with
  | Ok _ -> true
  | Error _ -> false

(* Figure 7 lists a slave only when some semi-join master candidate
   pairs with it: the left slave serves right-side masters and vice
   versa. *)
let pp_slave_column ppf info =
  let used side =
    List.exists
      (fun c -> c.mode = Semi && c.fromchild = Some side)
      info.candidates
  in
  let slaves =
    (if used Right then Option.to_list info.leftslave else [])
    @ (if used Left then Option.to_list info.rightslave else [])
  in
  let slaves =
    List.sort_uniq
      (fun a b -> Server.compare a.server b.server)
      slaves
  in
  Fmt.(list ~sep:(any "/") (using (fun c -> c.server) Server.pp)) ppf slaves

let pp_trace ppf t =
  let pp_visit ppf info =
    Fmt.pf ppf "n%-3d %a %a" info.node
      Fmt.(list ~sep:(any " ") pp_candidate)
      info.candidates pp_slave_column info
  in
  let pp_assign ppf (id, e) =
    Fmt.pf ppf "n%-3d %a" id Assignment.pp_executor e
  in
  Fmt.pf ppf "@[<v>Find_candidates:@,%a@,Assign_ex:@,%a@]"
    Fmt.(list ~sep:(any "@,") pp_visit)
    t.visit_order
    Fmt.(list ~sep:(any "@,") pp_assign)
    t.assign_order

let pp_failure ppf f =
  Fmt.pf ppf "no safe assignment exists for node n%d" f.failed_at
