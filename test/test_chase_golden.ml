(* Golden derivation traces. The certificate of a closed policy replays
   the trace [Chase.close_trace] records, so a change to how the chase
   enumerates merges must keep the trace itself — every derived rule,
   both premises, the condition merged on, in order — and not only the
   rule set the differential suites compare. Each case pins the MD5 of
   the rendered trace. *)

open Relalg
open Authz

let c = Alcotest.test_case
let check = Alcotest.check

(* Qualified names, so two relations' like-named attributes cannot
   render alike. *)
let render_attrs b set =
  Attribute.Set.iter
    (fun a ->
      Buffer.add_string b (Fmt.str "%a" Attribute.pp_qualified a);
      Buffer.add_char b ',')
    set

let render_cond b cond =
  Buffer.add_char b '(';
  List.iter
    (fun (l, r) ->
      Buffer.add_string b
        (Fmt.str "%a=%a;" Attribute.pp_qualified l Attribute.pp_qualified r))
    (Joinpath.Cond.pairs cond);
  Buffer.add_char b ')'

let render_rule b (a : Authorization.t) =
  Buffer.add_char b '[';
  render_attrs b a.attrs;
  Buffer.add_char b '|';
  List.iter (render_cond b) (Joinpath.conditions a.path);
  Buffer.add_string b "]->";
  Buffer.add_string b (Server.name a.server)

let digest_of render items =
  let b = Buffer.create 4096 in
  List.iter
    (fun x ->
      render b x;
      Buffer.add_char b '\n')
    items;
  Digest.to_hex (Digest.string (Buffer.contents b))

let trace_digest trace =
  digest_of
    (fun b (d : Chase.derivation) ->
      render_rule b d.derived;
      Buffer.add_string b " <= ";
      render_rule b d.left;
      Buffer.add_string b " + ";
      render_rule b d.right;
      Buffer.add_string b " via ";
      render_cond b d.via)
    trace

let table_digest table =
  digest_of
    (fun b (rule, just) ->
      render_rule b rule;
      match just with
      | Chase.Granted -> Buffer.add_string b " granted"
      | Chase.Composed { left; right; via } ->
        Buffer.add_string b (Printf.sprintf " <= %d + %d via " left right);
        render_cond b via)
    (Chase.entries table)

(* The chase points of [bench/main.exe chase]: chain systems with
   subtree grants up to 2 edges. *)
let chase_case relations density =
  let rng = Workload.Rng.make ~seed:(41 * relations) in
  let sys =
    Workload.System_gen.generate rng ~relations ~servers:relations ~extra:2
      ~topology:Workload.System_gen.Chain
  in
  ( sys.Workload.System_gen.join_graph,
    Workload.Authz_gen.generate
      (Workload.Rng.make ~seed:(relations + 1))
      ~max_path:2 ~attr_keep:1.0 ~density sys )

(* A denser system: two relations per server and partial attribute
   grants, so every server derives many rules over several rounds. *)
let dense_case () =
  let rng = Workload.Rng.make ~seed:18 in
  let sys =
    Workload.System_gen.generate rng ~relations:6 ~servers:3 ~extra:2
      ~topology:Workload.System_gen.Chain
  in
  ( sys.Workload.System_gen.join_graph,
    Workload.Authz_gen.generate rng ~max_path:2 ~attr_keep:0.6 ~density:0.8
      sys )

(* Per server: the number of derived rules and the last round that
   derives one (base rules are round 0, a step's conclusion one past
   its later premise). *)
let rounds_per_server trace =
  let round = Hashtbl.create 256 in
  let of_rule (a : Authorization.t) =
    Option.value ~default:0 (Hashtbl.find_opt round a.id)
  in
  let stats = Hashtbl.create 8 in
  List.iter
    (fun (d : Chase.derivation) ->
      let r = 1 + max (of_rule d.left) (of_rule d.right) in
      Hashtbl.replace round d.derived.id r;
      let s = Server.name d.derived.server in
      let n, last = Option.value ~default:(0, 0) (Hashtbl.find_opt stats s) in
      Hashtbl.replace stats s (n + 1, max last r))
    trace;
  Hashtbl.fold (fun s v acc -> (s, v) :: acc) stats []

let test_chase_points () =
  List.iter
    (fun (relations, density, expected) ->
      let joins, policy = chase_case relations density in
      let _, trace = Chase.close_trace ~joins policy in
      check Alcotest.string (Printf.sprintf "%d relations" relations) expected
        (trace_digest trace))
    [
      (6, 0.5, "a75646e0a34437203e36e5f4d22f1151");
      (9, 0.4, "de622c07042919c45091ca5c8218eff6");
      (12, 0.35, "15208a80a9bfbbae29fa0145eba7d62d");
      (15, 0.3, "6a5351cf7ee5ca18206493a357281901");
    ]

let test_dense () =
  let joins, policy = dense_case () in
  let _, trace = Chase.close_trace ~joins policy in
  let stats = rounds_per_server trace in
  check Alcotest.int "every server derives" 3 (List.length stats);
  List.iter
    (fun (s, (n, last)) ->
      check Alcotest.bool (s ^ " derives at least 100 rules") true (n >= 100);
      check Alcotest.bool (s ^ " derives over at least 3 rounds") true
        (last >= 3))
    stats;
  check Alcotest.string "dense trace" "a3c95b5c273bbc095011a6179d369836"
    (trace_digest trace)

(* A forced handle through revoke and re-grant rounds, each forced:
   the table the handle's certificates cite. *)
let test_revoke_regrant () =
  let joins, policy = chase_case 9 0.4 in
  let path_rules =
    List.filter
      (fun (a : Authorization.t) -> not (Joinpath.is_empty a.path))
      (Policy.authorizations policy)
  in
  let n = List.length path_rules in
  let picks = List.init 5 (fun i -> List.nth path_rules (i * n / 5)) in
  let h = Chase.closed_policy ~joins policy in
  ignore (Chase.closure h);
  let h =
    List.fold_left
      (fun h rule ->
        let h = Chase.revoke rule h in
        ignore (Chase.closure h);
        let h = Chase.add rule h in
        ignore (Chase.closure h);
        h)
      h picks
  in
  check Alcotest.string "revoke + re-grant table"
    "9d275602d961bda88fc5495df9d1a611" (table_digest (Chase.table h))

let suite =
  [
    c "bench-chase points" `Quick test_chase_points;
    c "dense system" `Quick test_dense;
    c "revoke and re-grant rounds" `Quick test_revoke_regrant;
  ]
