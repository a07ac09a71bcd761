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
    let slow = Oracle.close_chase ~joins policy in
    if not (Policy.equal fast slow) then
      Alcotest.failf
        "seed %d: semi-naive closure (%d rules) differs from naive (%d rules)"
        seed (Policy.cardinality fast) (Policy.cardinality slow)
  done

(* Every rule of a generated closure carries the bits of its own tree
   sets: the chase builds a fresh rule's sets from its parents', and
   the merge it admitted was computed on the parents' bits. *)
let prop_closure_bits =
  QCheck.Test.make ~count:60 ~name:"closure rules carry their sets' bits"
    QCheck.(int_range 1 200)
    (fun seed ->
      let sys, policy = random_case seed in
      let joins = sys.Workload.System_gen.join_graph in
      List.for_all
        (fun (a : Authorization.t) ->
          a.attrs_bits = Intern.attrs_bits a.attrs
          && a.path_bits = Intern.path_bits a.path)
        (Policy.authorizations (Chase.close ~joins policy)))

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

(* Two tables agree when they number the same rules in the same order
   with the same justifications. *)
let same_entries t1 t2 =
  let just_equal j1 j2 =
    match (j1, j2) with
    | Chase.Granted, Chase.Granted -> true
    | Chase.Composed c1, Chase.Composed c2 ->
      c1.left = c2.left && c1.right = c2.right
      && Joinpath.Cond.equal c1.via c2.via
    | _ -> false
  in
  List.equal
    (fun (a1, j1) (a2, j2) -> Authorization.equal a1 a2 && just_equal j1 j2)
    (Chase.entries t1) (Chase.entries t2)

let from_scratch_table ~joins base =
  Chase.table_of_trace base (snd (Chase.close_trace ~joins base))

let revoke_case () =
  let rng = Workload.Rng.make ~seed:11 in
  let sys =
    Workload.System_gen.generate rng ~relations:4 ~servers:4 ~extra:1
      ~topology:Workload.System_gen.Chain
  in
  let joins = sys.Workload.System_gen.join_graph in
  (joins, Workload.Authz_gen.generate rng ~max_path:2 ~density:0.5 sys)

let test_revoke_recomputes () =
  let joins, policy = revoke_case () in
  let handle = Chase.closed_policy ~joins policy in
  ignore (Chase.closure handle);
  List.iter
    (fun rule ->
      let revoked = Chase.revoke rule handle in
      let shrunk = Policy.remove rule policy in
      let scratch = Chase.close ~joins shrunk in
      check Alcotest.bool "revoke = close of shrunk base" true
        (Policy.equal (Chase.closure revoked) scratch);
      check Alcotest.bool "revoke = table of the shrunk base's trace" true
        (same_entries (Chase.table revoked) (from_scratch_table ~joins shrunk)))
    (Policy.authorizations policy);
  (* A from-scratch handle stays from scratch across successive
     revokes, each forced before the next. *)
  ignore
    (List.fold_left
       (fun h rule ->
         let h = Chase.revoke rule h in
         check Alcotest.bool "successive revokes = from scratch" true
           (Policy.equal (Chase.closure h) (Chase.close ~joins (Chase.policy h))
           && same_entries (Chase.table h)
                (from_scratch_table ~joins (Chase.policy h)));
         h)
       handle
       (List.filteri (fun i _ -> i mod 2 = 0) (Policy.authorizations policy)));
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

let test_revoke_stays_on_server () =
  (* The merge rule joins rules of one server, so a revoke on a forced
     handle re-derives nothing elsewhere: every other server's rules
     are the very values of the old closure, not fresh copies. *)
  let joins, policy = revoke_case () in
  let handle = Chase.closed_policy ~joins policy in
  let before = Policy.authorizations (Chase.closure handle) in
  List.iter
    (fun (rule : Authorization.t) ->
      List.iter
        (fun (a : Authorization.t) ->
          if not (Server.equal a.server rule.server) then
            check Alcotest.bool "other servers' rules are kept" true
              (List.memq a before))
        (Policy.authorizations (Chase.closure (Chase.revoke rule handle))))
    (Policy.authorizations policy)

(* Random grant/revoke churn through one forced handle over a 4–6-
   relation chain: a pool of every subtree rule at every server, a base
   holding about half of it. *)
let prop_revoke_churn =
  QCheck.Test.make ~count:60 ~name:"grant/revoke churn keeps the closure"
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 6) (pair bool small_nat)))
    (fun (seed, ops) ->
      let rng = Workload.Rng.make ~seed in
      let relations = 4 + (seed mod 3) in
      let sys =
        Workload.System_gen.generate rng ~relations ~servers:relations ~extra:1
          ~topology:Workload.System_gen.Chain
      in
      let joins = sys.Workload.System_gen.join_graph in
      let pool =
        Policy.authorizations
          (Workload.Authz_gen.generate rng ~max_path:2 ~attr_keep:1.0
             ~density:1.0 sys)
      in
      let base = Policy.of_list (Workload.Rng.subset rng ~p:0.5 pool) in
      let nth l k = List.nth l (k mod List.length l) in
      let step h (grant, k) =
        let h, revoked =
          if grant then
            match List.filter (fun a -> not (Policy.mem a (Chase.policy h))) pool with
            | [] -> (h, None)
            | absent -> (Chase.add (nth absent k) h, None)
          else
            match Policy.authorizations (Chase.policy h) with
            | [] -> (h, None)
            | present ->
              let a = nth present k in
              (Chase.revoke a h, Some a.Authorization.server)
        in
        let closure = Chase.closure h in
        let scratch = Chase.close ~joins (Chase.policy h) in
        if not (sem_equal closure scratch) then
          QCheck.Test.fail_reportf "seed %d: closure drifted from scratch" seed;
        Option.iter
          (QCheck.Test.fail_reportf "seed %d: %s" seed)
          (Helpers.maintained_state_error h);
        (match revoked with
         | Some s ->
           let on_s p = Policy.of_list (Policy.view p s) in
           if not (Policy.equal (on_s closure) (on_s scratch)) then
             QCheck.Test.fail_reportf "seed %d: revoked server %a differs" seed
               Server.pp s
         | None -> ());
        if relations <= 4
           && not (sem_equal closure (Oracle.close_chase ~joins (Chase.policy h)))
        then QCheck.Test.fail_reportf "seed %d: closure differs from naive" seed;
        h
      in
      let h = Chase.closed_policy ~joins base in
      ignore (Chase.closure h);
      ignore (List.fold_left step h ops);
      true)

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
    Oracle.close_chase ~max_rules:3 ~joins:[ ab_join ] symmetric_policy
  in
  check Alcotest.bool "naive agrees" true (Policy.equal closed naive)

let test_oracle_stalled_round () =
  (* Under an open-mode policy a denial can forbid a merged view, so a
     round re-derives a rule the policy already holds: the oracle stops
     with [Invalid_argument] instead of looping. *)
  let s = Server.make "S" in
  let denial =
    Authorization.make_denial
      ~attrs:
        (Attribute.Set.of_list
           [ Attribute.make ~relation:"A" "X"; Attribute.make ~relation:"B" "Y" ])
      ~path:(Joinpath.singleton ab_join) s
  in
  let policy =
    List.fold_left
      (fun p a -> Policy.add a p)
      (Policy.open_policy [ denial ])
      (Policy.authorizations symmetric_policy)
  in
  match Oracle.close_chase ~joins:[ ab_join ] policy with
  | exception Invalid_argument _ -> ()
  | p -> Alcotest.failf "stalled round not refused (%d rules)" (Policy.cardinality p)

let test_revoke_budget () =
  (* [wide] admits both merges of [a]/[au] with [b], so revoking it
     grows the closure from 5 to 6 rules (server T's rule included).
     On a from-scratch handle the revoke fits a budget of exactly 6 and
     overflows 5: the bound counts the whole closure, not only the
     re-closed server. *)
  let s = Server.make "S" and t = Server.make "T" in
  let ax = Attribute.make ~relation:"A" "X"
  and au = Attribute.make ~relation:"A" "U"
  and by = Attribute.make ~relation:"B" "Y" in
  let rule attrs path srv =
    Authorization.make_exn ~attrs:(Attribute.Set.of_list attrs) ~path srv
  in
  let wide = rule [ ax; au; by ] (Joinpath.singleton ab_join) s in
  let policy =
    Policy.of_list
      [
        rule [ ax ] Joinpath.empty s;
        rule [ ax; au ] Joinpath.empty s;
        rule [ by ] Joinpath.empty s;
        wide;
        rule [ ax ] Joinpath.empty t;
      ]
  in
  let joins = [ ab_join ] in
  let shrunk = Chase.close ~joins (Policy.remove wide policy) in
  check Alcotest.int "closure size" 5
    (Policy.cardinality (Chase.close ~joins policy));
  check Alcotest.int "shrunk closure size" 6 (Policy.cardinality shrunk);
  let revoked max_rules =
    let h = Chase.closed_policy ~max_rules ~joins policy in
    ignore (Chase.closure h);
    Chase.closure (Chase.revoke wide h)
  in
  check Alcotest.bool "fits a budget of exactly its size" true
    (Policy.equal (revoked 6) shrunk);
  match revoked 5 with
  | exception Invalid_argument _ -> ()
  | p -> Alcotest.failf "budget 5 not enforced (%d rules)" (Policy.cardinality p)

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
  let slow = Oracle.close_chase ~joins:M.join_graph M.policy in
  check Alcotest.bool "medical closure identical" true (Policy.equal fast slow)

let suite =
  [
    c "differential soak: semi-naive = naive on 200 random policies" `Quick
      test_differential_soak;
    Helpers.qcheck prop_closure_bits;
    c "idempotent on random policies" `Quick test_idempotent_random;
    c "order-independent" `Quick test_order_independent;
    c "incremental add is extensionally faithful" `Quick
      test_incremental_add_extensional;
    c "revoke recomputes from the shrunk base" `Quick test_revoke_recomputes;
    c "revoke re-derives only the revoked server" `Quick
      test_revoke_stays_on_server;
    Helpers.qcheck prop_revoke_churn;
    c "revoke obeys the whole-closure budget" `Quick test_revoke_budget;
    c "budget counts distinct rules" `Quick test_budget_counts_distinct;
    c "the oracle refuses a round that adds nothing" `Quick
      test_oracle_stalled_round;
    c "no-op merges are skipped" `Quick test_merge_skips_noop;
    c "medical policy differential" `Quick test_medical_differential;
  ]
