(* Differential and property tests for the semi-naive chase: the
   indexed frontier evaluation must compute exactly the closure of the
   naive all-pairs reference, on random policies and under incremental
   updates, and the rule budget must count distinct rules only. *)

open Relalg
open Authz
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

(* One random federation per seed: topology, size and density all
   derive from the seed so the soak sweeps the parameter space.
   Densities are capped (closures of dense 5-relation systems run to
   hundreds of rules, and the naive reference side of the differential
   is quadratic — the cap keeps the whole soak in seconds). *)
let random_case ?(max_density = 0.6) ?(max_relations = 5) seed =
  let rng = Workload.Rng.make ~seed in
  let topology =
    match seed mod 3 with
    | 0 -> Workload.System_gen.Chain
    | 1 -> Workload.System_gen.Star
    | _ -> Workload.System_gen.Random { extra_edges = 1 }
  in
  let relations = 3 + (seed mod (max_relations - 2)) in
  let sys =
    Workload.System_gen.generate rng ~relations ~servers:relations ~extra:1
      ~topology
  in
  let density =
    0.1 +. ((max_density -. 0.1) *. float_of_int (seed mod 7) /. 6.0)
  in
  let policy = Workload.Authz_gen.generate rng ~max_path:2 ~density sys in
  (sys, policy)

(* Extensional equality of two policies as deciders: every rule of
   each side is admitted by the other. Stronger than needed in the
   set-equal direction, but exactly the contract [Chase.add]
   guarantees (its frontier-extended closure may hold a different rule
   SET than the from-scratch closure of the grown policy). *)
let sem_equal p1 p2 =
  let admits p (a : Authorization.t) =
    Policy.can_view p (Profile.of_rule a) a.Authorization.server
  in
  List.for_all (admits p2) (Policy.authorizations p1)
  && List.for_all (admits p1) (Policy.authorizations p2)

let test_differential_soak () =
  for seed = 1 to 200 do
    let sys, policy = random_case seed in
    let joins = sys.Workload.System_gen.join_graph in
    let fast = Chase.close ~joins policy in
    let slow = Chase.close_naive ~joins policy in
    if not (Policy.equal fast slow) then
      Alcotest.failf
        "seed %d: semi-naive closure (%d rules) differs from naive (%d rules)"
        seed (Policy.cardinality fast) (Policy.cardinality slow)
  done

let test_idempotent_random () =
  for seed = 1 to 30 do
    let sys, policy = random_case ~max_density:0.5 ~max_relations:4 seed in
    let joins = sys.Workload.System_gen.join_graph in
    let once = Chase.close ~joins policy in
    let twice = Chase.close ~joins once in
    if not (Policy.equal once twice) then Alcotest.failf "seed %d" seed
  done

let test_order_independent () =
  (* The closure is a function of the rule SET: feeding the rules in
     reversed (and shuffled) insertion order must close identically. *)
  for seed = 1 to 30 do
    let sys, policy = random_case ~max_density:0.5 ~max_relations:4 seed in
    let joins = sys.Workload.System_gen.join_graph in
    let rules = Policy.authorizations policy in
    let rng = Workload.Rng.make ~seed:(seed * 7919) in
    let reordered = Policy.of_list (Workload.Rng.shuffle rng rules) in
    let reversed = Policy.of_list (List.rev rules) in
    let a = Chase.close ~joins policy in
    let b = Chase.close ~joins reordered in
    let d = Chase.close ~joins reversed in
    if not (Policy.equal a b && Policy.equal a d) then
      Alcotest.failf "seed %d: closure depends on insertion order" seed
  done

let test_incremental_add_extensional () =
  (* Growing a forced handle rule by rule must stay extensionally equal
     to closing the grown base from scratch. *)
  for seed = 1 to 12 do
    let sys, policy = random_case ~max_density:0.5 ~max_relations:4 seed in
    let joins = sys.Workload.System_gen.join_graph in
    match Policy.authorizations policy with
    | [] -> ()
    | first :: rest ->
      let handle = ref (Chase.closed_policy ~joins (Policy.of_list [ first ])) in
      ignore (Chase.closure !handle);
      List.iteri
        (fun i a ->
          handle := Chase.add a !handle;
          (* Force every third step so both the incremental
             (frontier-extension) and the lazy (recompute) paths of
             [Chase.add] are exercised. *)
          if i mod 3 = 0 then ignore (Chase.closure !handle))
        rest;
      let incremental = Chase.closure !handle in
      let scratch = Chase.close ~joins policy in
      if not (sem_equal incremental scratch) then
        Alcotest.failf "seed %d: incremental closure drifted" seed
  done

let test_revoke_recomputes () =
  let rng = Workload.Rng.make ~seed:11 in
  let sys =
    Workload.System_gen.generate rng ~relations:4 ~servers:4 ~extra:1
      ~topology:Workload.System_gen.Chain
  in
  let joins = sys.Workload.System_gen.join_graph in
  let policy = Workload.Authz_gen.generate rng ~max_path:2 ~density:0.5 sys in
  let handle = Chase.closed_policy ~joins policy in
  ignore (Chase.closure handle);
  List.iter
    (fun rule ->
      let after = Chase.closure (Chase.revoke rule handle) in
      let scratch = Chase.close ~joins (Policy.remove rule policy) in
      check Alcotest.bool "revoke = close of shrunk base" true
        (Policy.equal after scratch))
    (Policy.authorizations policy);
  (* A derived rule is not in the base: revoking it changes nothing, so
     the handle, its closure and its table all survive. *)
  let derived =
    List.filter
      (fun a -> not (Policy.mem a policy))
      (Policy.authorizations (Chase.closure handle))
  in
  check Alcotest.bool "the closure derives rules" true (derived <> []);
  List.iter
    (fun d ->
      check Alcotest.bool "revoking a derived rule keeps the handle" true
        (Chase.revoke d handle == handle))
    derived

(* ------------------------------------------------------------------ *)
(* Budget regressions: [max_rules] bounds DISTINCT rules. The seed
   code appended both copies of a symmetrically derived rule to the
   round's fresh list before counting, so a budget exactly the size of
   the closure could spuriously overflow. *)

let ab_join =
  Joinpath.Cond.eq
    (Attribute.make ~relation:"A" "X")
    (Attribute.make ~relation:"B" "Y")

let symmetric_policy =
  let s = Server.make "S" in
  Policy.of_list
    [
      Authorization.make_exn
        ~attrs:
          (Attribute.Set.of_list
             [ Attribute.make ~relation:"A" "X"; Attribute.make ~relation:"A" "U" ])
        ~path:Joinpath.empty s;
      Authorization.make_exn
        ~attrs:
          (Attribute.Set.of_list
             [ Attribute.make ~relation:"B" "Y"; Attribute.make ~relation:"B" "V" ])
        ~path:Joinpath.empty s;
    ]

let test_budget_counts_distinct () =
  (* Two base rules derive exactly one joined rule (from either merge
     orientation): the closure has 3 rules and must fit a budget of 3. *)
  let closed = Chase.close ~max_rules:3 ~joins:[ ab_join ] symmetric_policy in
  check Alcotest.int "closure size" 3 (Policy.cardinality closed);
  (match Chase.close ~max_rules:2 ~joins:[ ab_join ] symmetric_policy with
  | exception Invalid_argument _ -> ()
  | p -> Alcotest.failf "budget 2 not enforced (%d rules)" (Policy.cardinality p));
  (* The naive reference obeys the same budget semantics. *)
  let naive =
    Chase.close_naive ~max_rules:3 ~joins:[ ab_join ] symmetric_policy
  in
  check Alcotest.bool "naive agrees" true (Policy.equal closed naive)

let test_merge_skips_noop () =
  (* A rule merged with a same-path rule it subsumes derives nothing
     new; the closure must terminate at exactly the input. *)
  let s = Server.make "S" in
  let a_attrs =
    Attribute.Set.of_list
      [ Attribute.make ~relation:"A" "X"; Attribute.make ~relation:"A" "U" ]
  in
  let b_attrs =
    Attribute.Set.of_list
      [ Attribute.make ~relation:"B" "Y"; Attribute.make ~relation:"B" "V" ]
  in
  let joined =
    Authorization.make_exn
      ~attrs:(Attribute.Set.union a_attrs b_attrs)
      ~path:(Joinpath.singleton ab_join) s
  in
  let p =
    Policy.of_list
      [
        Authorization.make_exn ~attrs:a_attrs ~path:Joinpath.empty s;
        Authorization.make_exn ~attrs:b_attrs ~path:Joinpath.empty s;
        joined;
      ]
  in
  (* Budget exactly |p|: any double-count or re-derivation of [joined]
     would overflow. *)
  let closed = Chase.close ~max_rules:3 ~joins:[ ab_join ] p in
  check Alcotest.bool "fixpoint is the input" true (Policy.equal p closed)

let test_medical_differential () =
  let fast = Chase.close ~joins:M.join_graph M.policy in
  let slow = Chase.close_naive ~joins:M.join_graph M.policy in
  check Alcotest.bool "medical closure identical" true (Policy.equal fast slow)

let suite =
  [
    c "differential soak: semi-naive = naive on 200 random policies" `Quick
      test_differential_soak;
    c "idempotent on random policies" `Quick test_idempotent_random;
    c "order-independent" `Quick test_order_independent;
    c "incremental add is extensionally faithful" `Quick
      test_incremental_add_extensional;
    c "revoke recomputes from the shrunk base" `Quick test_revoke_recomputes;
    c "budget counts distinct rules" `Quick test_budget_counts_distinct;
    c "no-op merges are skipped" `Quick test_merge_skips_noop;
    c "medical policy differential" `Quick test_medical_differential;
  ]
