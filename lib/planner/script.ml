open Relalg

type step =
  | Local of {
      at : Server.t;
      defines : string;
      sql : string;
    }
  | Ship of {
      src : Server.t;
      dst : Server.t;
      temp : string;
    }

type t = {
  steps : step list;
  result : string;
  location : Server.t;
}

let columns node =
  Plan.output node |> Attribute.Set.elements |> List.map Attribute.name
  |> String.concat ", "

let attr_list attrs =
  attrs |> List.map Attribute.name |> String.concat ", "

let on_clause cond = Fmt.str "%a" Joinpath.Cond.pp_sql cond

let of_assignment ?(third_party = false) catalog plan assignment =
  (* Structural validity first: reuse the safety checker's derivation
     (we only need its error cases; the flows themselves are implicit
     in the generated Ship steps). *)
  match Safety.flows ~third_party catalog plan assignment with
  | Error e -> Error e
  | Ok _ ->
    let steps = ref [] in
    let emit s = steps := s :: !steps in
    let master id =
      (Assignment.find assignment id).Assignment.master
    in
    let temp (n : Plan.node) = Printf.sprintf "t%d" n.id in
    let rec go (n : Plan.node) : unit =
      match n.op with
      | Plan.Leaf schema ->
        emit
          (Local
             {
               at = master n.id;
               defines = temp n;
               sql =
                 Printf.sprintf "CREATE TEMP TABLE %s AS SELECT %s FROM %s"
                   (temp n) (columns n) (Schema.name schema);
             })
      | Plan.Project (attrs, c) ->
        go c;
        emit
          (Local
             {
               at = master n.id;
               defines = temp n;
               sql =
                 Printf.sprintf "CREATE TEMP TABLE %s AS SELECT %s FROM %s"
                   (temp n)
                   (attr_list (Attribute.Set.elements attrs))
                   (temp c);
             })
      | Plan.Select (pred, c) ->
        go c;
        emit
          (Local
             {
               at = master n.id;
               defines = temp n;
               sql =
                 Fmt.str "CREATE TEMP TABLE %s AS SELECT %s FROM %s WHERE %a"
                   (temp n) (columns c) (temp c) Predicate.pp pred;
             })
      | Plan.Join (cond, l, r) ->
        go l;
        go r;
        let m = master n.id in
        let join_sql ~into ~left_t ~right_t =
          Printf.sprintf
            "CREATE TEMP TABLE %s AS SELECT %s FROM %s JOIN %s ON %s" into
            (columns n) left_t right_t (on_clause cond)
        in
        let join_here () =
          emit
            (Local
               {
                 at = m;
                 defines = temp n;
                 sql = join_sql ~into:(temp n) ~left_t:(temp l) ~right_t:(temp r);
               })
        in
        (* The master's operand and the other one, with their join
           attributes. *)
        let operands : Safety.side -> _ = function
          | Left -> (l, r, Joinpath.Cond.left cond, Joinpath.Cond.right cond)
          | Right -> (r, l, Joinpath.Cond.right cond, Joinpath.Cond.left cond)
        in
        let regular side =
          let _, oc, _, _ = operands side in
          emit (Ship { src = master oc.Plan.id; dst = m; temp = temp oc });
          join_here ()
        in
        let semi side ~slave =
          let mc, oc, mj, _ = operands side in
          let keys = temp n ^ "_keys" and back = temp n ^ "_semi" in
          emit
            (Local
               {
                 at = m;
                 defines = keys;
                 sql =
                   Printf.sprintf
                     "CREATE TEMP TABLE %s AS SELECT DISTINCT %s FROM %s" keys
                     (attr_list mj) (temp mc);
               });
          emit (Ship { src = m; dst = slave; temp = keys });
          emit
            (Local
               {
                 at = slave;
                 defines = back;
                 sql =
                   Printf.sprintf
                     "CREATE TEMP TABLE %s AS SELECT %s FROM %s JOIN %s ON %s"
                     back
                     (attr_list mj ^ ", " ^ columns oc)
                     (temp oc) keys (on_clause cond);
               });
          emit (Ship { src = slave; dst = m; temp = back });
          emit
            (Local
               {
                 at = m;
                 defines = temp n;
                 sql =
                   Printf.sprintf
                     "CREATE TEMP TABLE %s AS SELECT %s FROM %s NATURAL JOIN %s"
                     (temp n) (columns n) (temp mc) back;
               })
        in
        let coordinated side ~slave ~t =
          let mc, oc, mj, oj = operands side in
          let mkeys = temp n ^ "_mkeys"
          and okeys = temp n ^ "_okeys"
          and matched = temp n ^ "_matched"
          and reduced = temp n ^ "_reduced" in
          emit
            (Local
               {
                 at = m;
                 defines = mkeys;
                 sql =
                   Printf.sprintf
                     "CREATE TEMP TABLE %s AS SELECT DISTINCT %s FROM %s"
                     mkeys (attr_list mj) (temp mc);
               });
          emit (Ship { src = m; dst = t; temp = mkeys });
          emit
            (Local
               {
                 at = slave;
                 defines = okeys;
                 sql =
                   Printf.sprintf
                     "CREATE TEMP TABLE %s AS SELECT DISTINCT %s FROM %s"
                     okeys (attr_list oj) (temp oc);
               });
          emit (Ship { src = slave; dst = t; temp = okeys });
          emit
            (Local
               {
                 at = t;
                 defines = matched;
                 sql =
                   Printf.sprintf
                     "CREATE TEMP TABLE %s AS SELECT %s FROM %s JOIN %s ON %s"
                     matched (attr_list oj) mkeys okeys (on_clause cond);
               });
          emit (Ship { src = t; dst = slave; temp = matched });
          emit
            (Local
               {
                 at = slave;
                 defines = reduced;
                 sql =
                   Printf.sprintf
                     "CREATE TEMP TABLE %s AS SELECT %s FROM %s NATURAL JOIN %s"
                     reduced (columns oc) (temp oc) matched;
               });
          emit (Ship { src = slave; dst = m; temp = reduced });
          let left_t, right_t =
            if side = Left then (temp mc, reduced) else (reduced, temp mc)
          in
          emit
            (Local
               { at = m; defines = temp n; sql = join_sql ~into:(temp n) ~left_t ~right_t })
        in
        (match
           Safety.protocol ~third_party ~node:n.id
             (Assignment.find assignment n.id)
             ~left:(master l.Plan.id) ~right:(master r.Plan.id)
         with
         | Error _ -> assert false (* [Safety.flows] accepted it *)
         | Ok Local -> join_here ()
         | Ok (Regular side) -> regular side
         | Ok (Semi (side, slave)) -> semi side ~slave
         | Ok (Coordinated (side, slave, t)) -> coordinated side ~slave ~t
         | Ok Proxy ->
           (* Third-party proxy: both operands travel. *)
           emit (Ship { src = master l.Plan.id; dst = m; temp = temp l });
           emit (Ship { src = master r.Plan.id; dst = m; temp = temp r });
           join_here ())
    in
    let root = Plan.root plan in
    go root;
    Ok
      {
        steps = List.rev !steps;
        result = temp root;
        location = master root.Plan.id;
      }

let pp_step ppf = function
  | Local { at; sql; _ } -> Fmt.pf ppf "%a: %s" Server.pp at sql
  | Ship { src; dst; temp } ->
    Fmt.pf ppf "%a: SEND %s TO %a" Server.pp src temp Server.pp dst

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,-- result in %s at %a@]"
    Fmt.(list ~sep:(any "@,") pp_step)
    t.steps t.result Server.pp t.location
