(* The join order a plan miss serves: the cheapest under the cost
   model, the SQL order on a tie or when the cheapest is infeasible.
   Bytes fall on a chain whose selection sits on its far end, answers
   equal the SQL-order plan's, every served certificate checks against
   the plan rebuilt from the SQL in its recorded order, and an
   infeasible query reports the SQL order's failure. *)

open Relalg
module F = Federation
module C = Analysis.Certificate
module W = Workload

let c = Alcotest.test_case
let check = Alcotest.check

let sql_of q = String.map (function '\n' -> ' ' | ch -> ch) (Query.to_string q)

let serve fed sql =
  match F.query fed sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %a" sql F.pp_error e

(* ------------------------------------------------------------------ *)
(* A 4-relation chain of [rows] rows per relation: keys [0, rows), each
   link column a seeded permutation of the keys it references (every
   row joins exactly one partner), payload uniform in [0, 1000). *)
let chain ~rows seed =
  let rng = W.Rng.make ~seed in
  let sys =
    W.System_gen.generate rng ~relations:4 ~servers:4 ~extra:2
      ~topology:W.System_gen.Chain
  in
  let policy =
    W.Authz_gen.generate rng ~max_path:3 ~attr_keep:1.0 ~density:1.0 sys
  in
  let table = Hashtbl.create 4 in
  List.iter
    (fun schema ->
      let key = Schema.key schema in
      let column a =
        if List.exists (Attribute.equal a) key then Array.init rows Fun.id
        else if List.exists (fun (_, _, cond) ->
                    List.exists (Attribute.equal a) (Joinpath.Cond.left cond))
                  sys.edges
        then Array.of_list (W.Rng.shuffle rng (List.init rows Fun.id))
        else Array.init rows (fun _ -> W.Rng.int rng 1000)
      in
      let columns = List.map column (Schema.attributes schema) in
      Hashtbl.replace table (Schema.name schema)
        (Relation.of_rows schema
           (List.init rows (fun i ->
                List.map (fun col -> Value.Int col.(i)) columns))))
    (Catalog.schemas sys.catalog);
  (sys, policy, Hashtbl.find_opt table)

(* R0 ⋈ R1 ⋈ R2 ⋈ R3 in that order, one payload column each, and
   [where] on R3's first payload column. *)
let chain_sql (sys : W.System_gen.t) where =
  let attr name = W.System_gen.attr sys name in
  let cond i =
    let _, _, cond =
      List.find
        (fun (a, b, _) ->
          a = Printf.sprintf "R%d" i && b = Printf.sprintf "R%d" (i + 1))
        sys.edges
    in
    cond
  in
  sql_of
    (Helpers.check_ok Query.pp_error
       (Query.make sys.catalog
          ~select:(List.init 4 (fun i -> attr (Printf.sprintf "R%d_a1" i)))
          ~base:"R0"
          ~joins:(List.init 3 (fun i -> (Printf.sprintf "R%d" (i + 1), cond i)))
          ~where:(where (attr "R3_a0"))))

(* The bytes of the SQL-order plan, planned as a miss plans and
   executed without the federation. *)
let sql_order_bytes (sys : W.System_gen.t) fed instances sql =
  let plan = Query.to_plan (Sql_parser.parse_exn sys.catalog sql) in
  let handle = Authz.Chase.closed_policy ~joins:sys.join_graph (F.base_policy fed) in
  match
    Planner.Third_party.plan ~helpers:[] ~closed:handle sys.catalog
      (F.serving_policy fed) plan
  with
  | Error _ -> Alcotest.fail "the SQL order is infeasible"
  | Ok { assignment; rescues; _ } -> (
    match
      Distsim.Engine.execute ~third_party:(rescues <> []) sys.catalog ~instances
        plan assignment
    with
    | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
    | Ok o -> (Distsim.Network.total_bytes o.network, o.result))

let test_far_selection_halves_bytes () =
  let sys, policy, instances = chain ~rows:2000 11 in
  let fed =
    F.create ~catalog:sys.catalog ~policy ~close_under:sys.join_graph
      ~instances ()
  in
  let sql =
    chain_sql sys (fun a -> Predicate.Cmp (a, Predicate.Le, Const (Value.Int 99)))
  in
  let r = serve fed sql in
  let sql_bytes, sql_result = sql_order_bytes sys fed instances sql in
  check Alcotest.bool "the ranked order is not the SQL order" true
    (Plan.relations r.plan <> [ "R0"; "R1"; "R2"; "R3" ]);
  check Helpers.relation "same answer as the SQL order" sql_result r.result;
  if 2 * r.bytes > sql_bytes then
    Alcotest.failf "served %d bytes, the SQL order ships %d" r.bytes sql_bytes;
  (* A hit serves the cached ranked plan and ships the same bytes. *)
  let hit = serve fed sql in
  check Alcotest.bool "hit" true hit.from_cache;
  check Alcotest.int "same bytes on a hit" r.bytes hit.bytes;
  (* Without a WHERE every order ties: the SQL order's plan, exactly. *)
  let plain = chain_sql sys (fun _ -> Predicate.True) in
  let r = serve fed plain in
  check Alcotest.string "WHERE-less: the SQL order's plan"
    (Plan.to_string (Query.to_plan (Sql_parser.parse_exn sys.catalog plain)))
    (Plan.to_string r.plan);
  check Alcotest.int "WHERE-less: the SQL order's bytes"
    (fst (sql_order_bytes sys fed instances plain))
    r.bytes

(* The cache key keeps the FROM spelling: the same query spelled in
   another FROM order is another entry, though it is served the same
   ranked plan and answer. *)
let test_permuted_spellings_are_two_entries () =
  let sys, policy, instances = chain ~rows:200 5 in
  let fed = F.create ~catalog:sys.catalog ~policy ~close_under:sys.join_graph ~instances () in
  let where a = Predicate.Cmp (a, Predicate.Le, Const (Value.Int 99)) in
  let q = Sql_parser.parse_exn sys.catalog (chain_sql sys where) in
  let order = Option.get (Planner.Optimizer.rank Planner.Optimizer.rank_model q) in
  let respelled = sql_of (Planner.Optimizer.reorder q order) in
  let a = serve fed (chain_sql sys where) and b = serve fed respelled in
  check Alcotest.bool "the respelling misses" false b.from_cache;
  check Alcotest.int "two entries" 2 (List.length (F.cached_plans fed));
  check Alcotest.string "one plan" (Plan.to_string a.plan) (Plan.to_string b.plan);
  check Helpers.relation "one answer" a.result b.result

(* ------------------------------------------------------------------ *)
(* Generated federations, as the soak and the engine-diff suite draw
   them, with a one-conjunct WHERE on every query: the served answer is
   the SQL-order plan's, the served certificate checks against the plan
   rebuilt from the SQL in its recorded order, and an infeasible answer
   is the SQL order's failure. *)
let reordered = ref 0

let served_case seed =
  let rng = W.Rng.make ~seed:(900_000 + seed) in
  let relations = 4 + (seed mod 2) in
  let topology =
    match seed mod 3 with
    | 0 -> W.System_gen.Chain
    | 1 -> W.System_gen.Star
    | _ -> W.System_gen.Random { extra_edges = 1 }
  in
  let sys =
    W.System_gen.generate rng ~relations ~servers:relations ~extra:2 ~topology
  in
  let policy =
    W.Authz_gen.generate rng ~density:[| 0.45; 0.6; 0.75 |].(seed mod 3) sys
  in
  let instances = W.Data_gen.instances rng ~rows:8 ~null_share:0.1 sys in
  let queries =
    List.filter_map
      (fun joins -> W.Query_gen.generate rng ~where_prob:1.0 ~joins sys)
      [ 2; 3; 3 ]
  in
  (sys, policy, instances, queries)

let check_served seed =
  let sys, policy, instances, queries = served_case seed in
  if Authz.Policy.is_open policy then true
  else
    (* One case in five closes the policy under the chase, so served
       certificates also cite derived rules. *)
    let joins = if seed mod 5 = 0 then sys.join_graph else [] in
    let fed =
      F.create ~catalog:sys.catalog ~policy ~close_under:joins ~instances ()
    in
    List.for_all
      (fun q ->
        let sql = sql_of q in
        let q = Sql_parser.parse_exn sys.catalog sql in
        let sql_plan = Query.to_plan q in
        match F.query fed sql with
        | Ok r -> (
          if Plan.relations r.plan <> Query.relations q then incr reordered;
          if
            not
              (Relation.equal r.result
                 (Distsim.Engine.centralized ~instances sql_plan))
          then QCheck.Test.fail_reportf "seed %d, %s: answer differs" seed sql;
          match r.certificate with
          | None -> QCheck.Test.fail_reportf "seed %d: no certificate" seed
          | Some cert ->
            let rebuilt =
              match cert.C.order with
              | None -> q
              | Some order -> Planner.Optimizer.reorder q order
            in
            (match
               C.check_plan ~joins sys.catalog (F.base_policy fed)
                 (Query.to_plan rebuilt) cert
             with
             | [] -> true
             | f :: _ ->
               QCheck.Test.fail_reportf "seed %d, %s: %a" seed sql C.pp_failure f))
        | Error (F.Infeasible { failed_at; _ }) -> (
          match
            Planner.Third_party.plan ~helpers:[] sys.catalog
              (F.serving_policy fed) sql_plan
          with
          | Ok _ ->
            QCheck.Test.fail_reportf "seed %d, %s: infeasible, yet the SQL order is not"
              seed sql
          | Error f ->
            f.failed_at = failed_at
            || QCheck.Test.fail_reportf "seed %d: failed at n%d, the SQL order at n%d"
                 seed failed_at f.failed_at)
        | Error e -> QCheck.Test.fail_reportf "seed %d, %s: %a" seed sql F.pp_error e)
      queries

let prop_served_order =
  QCheck.Test.make ~count:40 ~name:"served order answers as the SQL order"
    QCheck.(int_bound 100_000)
    check_served

(* The property above must meet reordered plans: the seeds it can draw
   include some. *)
let test_generated_queries_reorder () =
  reordered := 0;
  List.iter (fun seed -> ignore (check_served seed)) (List.init 30 Fun.id);
  check Alcotest.bool "some generated queries are served reordered" true
    (!reordered > 5)

(* ------------------------------------------------------------------ *)
(* A→B→C where only the SQL order is safe: SA may read B in full and
   master A ⋈ B, SC may read that join's result and master the final
   join, but nobody may read B next to C. The selection on C makes
   B, C, A the cheapest order. *)
let fallback_fixture ~sql_feasible =
  let sa = Server.make "SA" and sb = Server.make "SB" and sc = Server.make "SC" in
  let a = Schema.make "A" ~key:[ "Ax" ] [ "Ax"; "Adata" ] in
  let b = Schema.make "B" ~key:[ "Bx" ] [ "Bx"; "By"; "Bdata" ] in
  let cc = Schema.make "C" ~key:[ "Cy" ] [ "Cy"; "Cdata" ] in
  let catalog = Catalog.of_list [ (a, sa); (b, sb); (cc, sc) ] in
  let attr name =
    Helpers.check_ok Catalog.pp_error (Catalog.resolve_attribute catalog name)
  in
  let auth attrs path server =
    Authz.Authorization.make_exn
      ~attrs:(Attribute.Set.of_list (List.map attr attrs))
      ~path:(Joinpath.of_list path) server
  in
  let policy =
    Authz.Policy.of_list
      ([
         auth [ "Ax"; "Adata" ] [] sa;
         auth [ "Bx"; "By"; "Bdata" ] [] sb;
         auth [ "Cy"; "Cdata" ] [] sc;
         auth [ "Bx"; "By"; "Bdata" ] [] sa;
       ]
      @
      if sql_feasible then
        [
          auth
            [ "Ax"; "Adata"; "Bx"; "By"; "Bdata" ]
            [ Joinpath.Cond.eq (attr "Ax") (attr "Bx") ]
            sc;
        ]
      else [])
  in
  let s v = Value.String v in
  let instances name =
    List.assoc_opt name
      [
        ("A", Relation.of_rows a [ [ s "k1"; s "a1" ]; [ s "k2"; s "a2" ] ]);
        ( "B",
          Relation.of_rows b
            [ [ s "k1"; s "y1"; s "b1" ]; [ s "k2"; s "y2"; s "b2" ] ] );
        ("C", Relation.of_rows cc [ [ s "y1"; s "c1" ]; [ s "y2"; s "c2" ] ]);
      ]
  in
  let sql =
    "SELECT Adata, Bdata, Cdata FROM A JOIN B ON Ax = Bx JOIN C ON By = Cy \
     WHERE Cdata = 'c1'"
  in
  (catalog, policy, instances, sql)

let test_infeasible_ranked_order_serves_sql_order () =
  let catalog, policy, instances, sql = fallback_fixture ~sql_feasible:true in
  let q = Sql_parser.parse_exn catalog sql in
  let ranked =
    match Planner.Optimizer.rank Planner.Optimizer.rank_model q with
    | Some order -> order
    | None -> Alcotest.fail "the selection should rank another order first"
  in
  check Alcotest.bool "the ranked order is infeasible" false
    (Planner.Safe_planner.feasible catalog policy
       (Query.to_plan (Planner.Optimizer.reorder q ranked)));
  let fed = F.create ~catalog ~policy ~instances () in
  let r = serve fed sql in
  check Alcotest.(list string) "served in the SQL order" [ "A"; "B"; "C" ]
    (Plan.relations r.plan);
  check Alcotest.int "one answer" 1 (Relation.cardinality r.result);
  check
    Alcotest.(option (list string))
    "the certificate names the SQL order"
    (Some [ "A"; "B"; "C" ])
    (Option.bind r.certificate (fun cert -> cert.C.order))

let test_infeasible_in_both_orders_reports_sql_order () =
  let catalog, policy, instances, sql = fallback_fixture ~sql_feasible:false in
  let q = Sql_parser.parse_exn catalog sql in
  let plan = Query.to_plan q in
  let expected_at =
    match Planner.Third_party.plan ~helpers:[] catalog policy plan with
    | Ok _ -> Alcotest.fail "the SQL order should be infeasible"
    | Error f -> f.failed_at
  in
  let ranked_at =
    let order = Option.get (Planner.Optimizer.rank Planner.Optimizer.rank_model q) in
    match
      Planner.Third_party.plan ~helpers:[] catalog policy
        (Query.to_plan (Planner.Optimizer.reorder q order))
    with
    | Ok _ -> Alcotest.fail "the ranked order should be infeasible"
    | Error f -> f.failed_at
  in
  check Alcotest.bool "the two orders fail at different nodes" true
    (expected_at <> ranked_at);
  let advice = Fmt.str "%a" Fmt.(option Planner.Advisor.pp_proposal) in
  let fed = F.create ~catalog ~policy ~instances () in
  match F.query fed sql with
  | Error (F.Infeasible { failed_at; advice = got }) ->
    check Alcotest.int "the SQL order's failed node" expected_at failed_at;
    check Alcotest.string "the SQL order's advice"
      (advice (Planner.Advisor.advise catalog policy plan))
      (advice got)
  | Ok _ -> Alcotest.fail "answered an infeasible query"
  | Error e -> Alcotest.failf "wrong error: %a" F.pp_error e

let suite =
  [
    c "a far selection: at most half the SQL order's bytes" `Quick
      test_far_selection_halves_bytes;
    c "permuted FROM spellings are two cache entries" `Quick
      test_permuted_spellings_are_two_entries;
    Helpers.qcheck prop_served_order;
    c "generated queries are served reordered" `Quick
      test_generated_queries_reorder;
    c "an infeasible ranked order serves the SQL order" `Quick
      test_infeasible_ranked_order_serves_sql_order;
    c "infeasible in both orders: the SQL order's failure" `Quick
      test_infeasible_in_both_orders_reports_sql_order;
  ]
