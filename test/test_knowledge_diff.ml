(* Differential and property tests for the semi-naive indexed
   knowledge-saturation engine: on random delivery logs the indexed
   fixpoint must reach verdicts identical to the naive reference
   ([Oracle.saturate]), saturation must be independent of delivery
   order, and subsumption pruning must drop only entries a retained
   entry dominates — never a CISQP030 witness. *)

open Relalg
open Authz
module K = Analysis.Knowledge

let c = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random delivery logs. Deliveries mix full base profiles, joined
   profiles, and PROJECTED variants of both (same join path, smaller
   pi — the shape that makes subsumption pruning fire), addressed to
   random servers of a random federation. *)

let topologies =
  [|
    Workload.System_gen.Chain;
    Workload.System_gen.Star;
    Workload.System_gen.Random { extra_edges = 1 };
  |]

let random_case seed =
  let rng = Workload.Rng.make ~seed in
  let relations = 3 + (seed mod 3) in
  let sys =
    Workload.System_gen.generate rng ~relations ~servers:relations ~extra:1
      ~topology:topologies.(seed mod 3)
  in
  let catalog = sys.Workload.System_gen.catalog in
  let joins = sys.Workload.System_gen.join_graph in
  let policy = Workload.Authz_gen.generate rng ~density:0.5 sys in
  let pool = ref (List.map Profile.of_base (Catalog.schemas catalog)) in
  for _ = 1 to 8 do
    let p = Workload.Rng.choose rng !pool in
    let q = Workload.Rng.choose rng !pool in
    let cond = Workload.Rng.choose rng joins in
    match Profile.try_join cond p q with
    | Some j when not (List.exists (Profile.equal j) !pool) -> pool := j :: !pool
    | _ -> ()
  done;
  let projected =
    List.filter_map
      (fun (p : Profile.t) ->
        match
          Workload.Rng.subset rng ~p:0.6
            (Attribute.Set.elements p.Profile.pi)
        with
        | [] -> None
        | kept -> Some (Profile.project (Attribute.Set.of_list kept) p))
      !pool
  in
  let pool = !pool @ projected in
  let servers = Server.Set.elements (Catalog.servers catalog) in
  let messages =
    List.init
      (6 + (seed mod 10))
      (fun i ->
        let receiver = Workload.Rng.choose rng servers in
        let sender = Workload.Rng.choose rng servers in
        let profile = Workload.Rng.choose rng pool in
        (receiver, { K.seq = i; sender; note = Printf.sprintf "m%d" i }, profile))
  in
  (catalog, joins, policy, messages)

let accumulate catalog messages =
  List.fold_left
    (fun t (receiver, source, profile) ->
      K.receive ~receiver ~source profile t)
    (K.of_catalog catalog) messages

(* Distinct (code, server) verdicts of an outcome: which servers get a
   CISQP030 / CISQP031 — the engine-independent part of the report
   (witness items depend on exploration order). *)
let verdicts policy (o : K.outcome) =
  let leak (l : K.leak) = ("CISQP030", Server.to_string l.K.server) in
  let exhausted s = ("CISQP031", Server.to_string s) in
  List.sort_uniq compare
    (List.map leak (K.leaks policy o.K.knowledge)
    @ List.map exhausted o.K.exhausted)

let test_differential_soak () =
  for seed = 1 to 200 do
    let catalog, joins, policy, messages = random_case seed in
    let t = accumulate catalog messages in
    let fast = K.saturate ~joins t in
    let slow = Oracle.saturate ~joins t in
    (* Pruning only ever removes: the indexed base is a subset of the
       naive closure that still covers all of it. *)
    if not (Oracle.subset fast.K.knowledge slow.K.knowledge) then
      Alcotest.failf "seed %d: indexed derived a profile naive did not" seed;
    if not (Oracle.covered_by slow.K.knowledge fast.K.knowledge) then
      Alcotest.failf "seed %d: pruned base does not cover the naive closure"
        seed;
    if verdicts policy fast <> verdicts policy slow then
      Alcotest.failf "seed %d: indexed and naive verdicts disagree" seed;
    if fast.K.exhausted <> [] || slow.K.exhausted <> [] then
      Alcotest.failf "seed %d: unexpected budget exhaustion" seed
  done

let test_permutation_independence () =
  (* The saturated profile sets are a function of the accumulated
     deliveries as a SET: feeding the log shuffled or reversed (seq
     renumbered by position) must saturate to equal bases and
     verdicts. *)
  for seed = 1 to 40 do
    let catalog, joins, policy, messages = random_case seed in
    let renumber ms =
      List.mapi (fun i (r, s, p) -> (r, { s with K.seq = i }, p)) ms
    in
    let rng = Workload.Rng.make ~seed:(seed * 7919) in
    let orders =
      [
        messages;
        renumber (Workload.Rng.shuffle rng messages);
        renumber (List.rev messages);
      ]
    in
    match List.map (fun ms -> K.saturate ~joins (accumulate catalog ms)) orders with
    | [ a; b; d ] ->
      if
        not
          (Oracle.equal a.K.knowledge b.K.knowledge
          && Oracle.equal a.K.knowledge d.K.knowledge)
      then Alcotest.failf "seed %d: saturation depends on delivery order" seed;
      if verdicts policy a <> verdicts policy b
         || verdicts policy a <> verdicts policy d
      then Alcotest.failf "seed %d: verdicts depend on delivery order" seed
    | _ -> assert false
  done

(* ------------------------------------------------------------------ *)
(* Handcrafted subsumption cases. Two relations joined on X = Y; the
   receiver also gets a projection of A carrying only the join
   attribute. Joining the projection yields a profile the full join
   dominates (same path, smaller pi) — the indexed engine must prune
   it, and the naive engine derives it, without the two disagreeing on
   where the leaks are. Attribute names are chosen so the full A
   profile sorts (and is therefore explored) first. *)

let sv = Server.make "SV"
let other = Server.make "XT"
let schema_a = Schema.make "A" ~key:[ "Aa" ] [ "Aa"; "Ax" ]
let schema_b = Schema.make "B" ~key:[ "By" ] [ "By"; "Bv" ]

let xy_join =
  Joinpath.Cond.eq
    (Attribute.make ~relation:"A" "Ax")
    (Attribute.make ~relation:"B" "By")

let pa = Profile.of_base schema_a
let pb = Profile.of_base schema_b

let pa_proj =
  Profile.project
    (Attribute.Set.of_list [ Attribute.make ~relation:"A" "Ax" ])
    pa

let msg i = { K.seq = i; sender = other; note = Printf.sprintf "m%d" i }

let test_pruning_drops_dominated () =
  (* Everything arrives by message: both joined profiles qualify for a
     leak, so the dominated one is pruned and the verdict set is
     unchanged. *)
  let t =
    K.empty
    |> K.receive ~receiver:sv ~source:(msg 0) pa
    |> K.receive ~receiver:sv ~source:(msg 1) pa_proj
    |> K.receive ~receiver:sv ~source:(msg 2) pb
  in
  let fast = K.saturate ~joins:[ xy_join ] t in
  let slow = Oracle.saturate ~joins:[ xy_join ] t in
  let full_join = Profile.join xy_join pa pb in
  let proj_join = Profile.join xy_join pa_proj pb in
  check Alcotest.bool "naive derives the dominated profile" true
    (K.mem slow.K.knowledge sv proj_join);
  check Alcotest.bool "indexed retains the dominator" true
    (K.mem fast.K.knowledge sv full_join);
  check Alcotest.bool "indexed prunes the dominated profile" false
    (K.mem fast.K.knowledge sv proj_join);
  (* Under the empty (closed) policy every qualified derivation leaks:
     verdicts must agree although the bases differ. *)
  check
    Alcotest.(list (pair string string))
    "verdicts unchanged by pruning"
    (verdicts Policy.empty slow)
    (verdicts Policy.empty fast);
  check Alcotest.bool "the leak is reported" true
    (List.mem ("CISQP030", Server.to_string sv) (verdicts Policy.empty fast))

let test_guard_keeps_qualified_witness () =
  (* Same shape, but A and B are STORED at the receiver: the full join
     is a local recombination (no leak), and only the delivered
     projection's join cites a message. The local dominator must not
     swallow the qualified witness — dropping it would lose the only
     CISQP030. *)
  let catalog = Catalog.of_list [ (schema_a, sv); (schema_b, sv) ] in
  let t = K.receive ~receiver:sv ~source:(msg 0) pa_proj (K.of_catalog catalog) in
  let fast = K.saturate ~joins:[ xy_join ] t in
  let slow = Oracle.saturate ~joins:[ xy_join ] t in
  let proj_join = Profile.join xy_join pa_proj pb in
  check Alcotest.bool "qualified witness survives pruning" true
    (K.mem fast.K.knowledge sv proj_join);
  check
    Alcotest.(list (pair string string))
    "verdicts agree" (verdicts Policy.empty slow) (verdicts Policy.empty fast);
  check Alcotest.bool "the leak is reported" true
    (List.mem ("CISQP030", Server.to_string sv) (verdicts Policy.empty fast))

let suite =
  [
    c "differential soak: indexed = naive verdicts on 200 logs" `Quick
      test_differential_soak;
    c "delivery-order independence" `Quick test_permutation_independence;
    c "subsumption drops dominated profiles only" `Quick
      test_pruning_drops_dominated;
    c "pruning keeps qualified leak witnesses" `Quick
      test_guard_keeps_qualified_witness;
  ]
