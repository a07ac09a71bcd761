open Relalg
open Authz
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check
let aset names = Attribute.Set.of_list (List.map M.attr names)

let profile ?(join = Joinpath.empty) ?(sigma = []) pi =
  Profile.make ~pi:(aset pi) ~join ~sigma:(aset sigma)

let holder_patient = Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient")
let illness_disease = Joinpath.Cond.eq (M.attr "Illness") (M.attr "Disease")

let test_view_per_server () =
  check Alcotest.int "S_I has 3 rules" 3
    (List.length (Policy.view M.policy M.s_i));
  check Alcotest.int "S_H has 4 rules" 4
    (List.length (Policy.view M.policy M.s_h));
  check Alcotest.int "S_N has 7 rules" 7
    (List.length (Policy.view M.policy M.s_n));
  check Alcotest.int "S_D has 1 rule" 1
    (List.length (Policy.view M.policy M.s_d))

let test_can_view_exact () =
  (* Authorization 1 admits exactly its own attributes. *)
  check Alcotest.bool "own relation" true
    (Policy.can_view M.policy (profile [ "Holder"; "Plan" ]) M.s_i)

let test_can_view_subset_of_attrs () =
  (* Condition 1 of Def 3.3 is ⊆: fewer attributes are fine. *)
  check Alcotest.bool "subset ok" true
    (Policy.can_view M.policy (profile [ "Holder" ]) M.s_i);
  (* ... but a superset is not. *)
  check Alcotest.bool "superset denied" false
    (Policy.can_view M.policy (profile [ "Holder"; "Plan"; "Patient" ]) M.s_i)

let test_sigma_counts_as_visible () =
  (* Selection attributes reveal information: pi ∪ sigma ⊆ A. *)
  check Alcotest.bool "sigma within grant" true
    (Policy.can_view M.policy
       (profile [ "Holder" ] ~sigma:[ "Plan" ])
       M.s_i);
  check Alcotest.bool "sigma outside grant" false
    (Policy.can_view M.policy
       (profile [ "Holder" ] ~sigma:[ "Patient" ])
       M.s_i)

let test_path_equality_strict () =
  (* Section 3.2's example: S_D may see Disease_list, but not
     Disease_list ⋈ Hospital — the extra join leaks which illnesses
     occur in the hospital. *)
  let plain = profile [ "Illness"; "Treatment" ] in
  let joined =
    profile [ "Illness"; "Treatment" ]
      ~join:(Joinpath.singleton illness_disease)
  in
  check Alcotest.bool "plain view ok" true
    (Policy.can_view M.policy plain M.s_d);
  check Alcotest.bool "joined view denied" false
    (Policy.can_view M.policy joined M.s_d)

let test_path_equality_orientation_insensitive () =
  (* Authorization 2 is spelled ⟨Holder, Patient⟩; a profile built with
     the flipped condition must still match. *)
  let p =
    profile [ "Holder"; "Physician" ]
      ~join:
        (Joinpath.singleton
           (Joinpath.Cond.eq (M.attr "Patient") (M.attr "Holder")))
  in
  check Alcotest.bool "flipped spelling admitted" true
    (Policy.can_view M.policy p M.s_i)

let test_smaller_path_not_implied () =
  (* Having authorization 2 (path {⟨Holder,Patient⟩}) does not admit a
     profile with an empty path over the same attributes. *)
  let p = profile [ "Physician" ] in
  check Alcotest.bool "empty path denied" false
    (Policy.can_view M.policy p M.s_i)

let test_closed_policy () =
  (* A server with no authorization sees nothing. *)
  let stranger = Server.make "S_X" in
  check Alcotest.bool "no grant, no view" false
    (Policy.can_view M.policy (profile [ "Holder" ]) stranger)

let test_authorizing_rule () =
  (match Helpers.authorizing_rule M.policy (profile [ "Holder" ]) M.s_i with
   | Some rule ->
     check Alcotest.bool "rule covers Holder" true
       (Attribute.Set.mem (M.attr "Holder") rule.Authorization.attrs)
   | None -> Alcotest.fail "no rule found");
  check Alcotest.bool "none for denied view" true
    (Helpers.authorizing_rule M.policy
       (profile [ "Holder"; "Plan"; "Patient" ])
       M.s_i
    = None)

let test_add_union () =
  let extra =
    Authorization.make_exn ~attrs:(aset [ "Treatment" ]) ~path:Joinpath.empty
      M.s_i
  in
  let p2 = Policy.add extra M.policy in
  check Alcotest.int "one more" 16 (Policy.cardinality p2);
  check Alcotest.int "add idempotent" 16
    (Policy.cardinality (Policy.add extra p2));
  check Alcotest.int "union" 16
    (Policy.cardinality (Policy.union M.policy p2));
  check Alcotest.bool "new view granted" true
    (Policy.can_view p2 (profile [ "Treatment" ]) M.s_i);
  check Alcotest.bool "original unchanged" false
    (Policy.can_view M.policy (profile [ "Treatment" ]) M.s_i)

let test_servers () =
  check Alcotest.int "four servers" 4
    (Server.Set.cardinal (Policy.servers M.policy))

(* Property: can_view is monotone in the attribute set — removing
   attributes from an admitted profile keeps it admitted. *)
let prop_monotone_attrs =
  let all = [ "Patient"; "Disease"; "Physician"; "Holder"; "Plan" ] in
  QCheck.Test.make ~name:"can_view antimonotone in pi" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 5) (int_bound 4)) (int_bound 4))
    (fun (keep_idx, drop) ->
      let pi = List.map (fun i -> List.nth all i) keep_idx in
      let join = Joinpath.singleton holder_patient in
      let full = profile pi ~join in
      let smaller =
        Profile.make
          ~pi:(Attribute.Set.remove (M.attr (List.nth all drop)) (aset pi))
          ~join ~sigma:Attribute.Set.empty
      in
      QCheck.assume (not (Attribute.Set.is_empty smaller.Profile.pi));
      (not (Policy.can_view M.policy full M.s_h))
      || Policy.can_view M.policy smaller M.s_h)

(* The epoch moves on every change and comes back when the change is
   undone: a grant then its revoke, a revoke then its re-grant. *)
let test_epoch_moves_and_restores () =
  let epoch = Policy.epoch in
  let moved what a b = check Alcotest.bool what true (epoch a <> epoch b) in
  let same what a b = check Alcotest.string what (epoch a) (epoch b) in
  let extra =
    Authorization.make_exn ~attrs:(aset [ "Treatment" ]) ~path:Joinpath.empty
      M.s_i
  in
  let granted = Policy.add extra M.policy in
  moved "a grant moves it" M.policy granted;
  same "its revoke restores it" M.policy (Policy.remove extra granted);
  let base = List.nth M.authorizations 4 in
  let revoked = Policy.remove base M.policy in
  moved "a revoke moves it" M.policy revoked;
  same "the re-grant restores it" M.policy (Policy.add base revoked);
  same "a present rule's grant leaves it" M.policy (Policy.add base M.policy);
  same "insertion order leaves it" M.policy
    (Policy.of_list (List.rev M.authorizations))

(* Rules over R(A, B) and S(A, C) on two servers, so that equal rules
   recur; half the pairs respell the first rule (its attributes added in
   the other order, its conditions flipped) instead of drawing a second
   one. *)
let arb_rule_pair =
  let r = Attribute.make ~relation:"R" and s = Attribute.make ~relation:"S" in
  let universe = [ r "A"; r "B"; s "A"; s "C" ] in
  let conds = [ (r "A", s "A"); (r "B", s "C") ] in
  let bit mask i = mask land (1 lsl i) <> 0 in
  let rule (server, conds_mask, flips, attrs_mask, reversed) =
    let path =
      Joinpath.of_list
        (List.concat
           (List.mapi
              (fun i (x, y) ->
                if not (bit conds_mask i) then []
                else if bit flips i then [ Joinpath.Cond.eq y x ]
                else [ Joinpath.Cond.eq x y ])
              conds))
    in
    let picked = List.filteri (fun i _ -> bit attrs_mask i) universe in
    let picked =
      if not (Joinpath.is_empty path) then picked
      else
        let rel = Attribute.relation (List.hd picked) in
        List.filter (fun a -> Attribute.relation a = rel) picked
    in
    let attrs =
      List.fold_left
        (fun acc a -> Attribute.Set.add a acc)
        Attribute.Set.empty
        (if reversed then List.rev picked else picked)
    in
    Authorization.make_exn ~attrs ~path (Server.make server)
  in
  let open QCheck.Gen in
  let params =
    map
      (fun ((server, conds_mask, flips), (attrs_mask, reversed)) ->
        (server, conds_mask, flips, attrs_mask, reversed))
      (pair
         (triple (oneofl [ "S1"; "S2" ]) (int_bound 3) (int_bound 3))
         (pair (int_range 1 15) bool))
  in
  let respelled (server, conds_mask, _, attrs_mask, _) =
    map
      (fun (flips, reversed) ->
        (server, conds_mask, flips, attrs_mask, reversed))
      (pair (int_bound 3) bool)
  in
  QCheck.make
    ~print:(fun (a, b) ->
      Authorization.to_string a ^ " / " ^ Authorization.to_string b)
    (let* p = params in
     let* q = oneof [ params; respelled p ] in
     return (rule p, rule q))

let prop_rule_id_is_identity =
  QCheck.Test.make ~name:"rule ids agree with Authorization.equal" ~count:500
    arb_rule_pair (fun ((a : Authorization.t), (b : Authorization.t)) ->
      Bool.equal (a.id = b.id) (Authorization.equal a b)
      && Bool.equal (a.attrs_id = b.attrs_id) (Attribute.Set.equal a.attrs b.attrs)
      && Bool.equal (a.path_id = b.path_id) (Joinpath.equal a.path b.path))

let suite =
  [
    c "view partitions by server" `Quick test_view_per_server;
    c "can_view exact grant" `Quick test_can_view_exact;
    c "attribute subset admitted, superset denied" `Quick
      test_can_view_subset_of_attrs;
    c "sigma attributes are visible information" `Quick
      test_sigma_counts_as_visible;
    c "join-path equality is strict (S_D example)" `Quick
      test_path_equality_strict;
    c "path equality mod orientation" `Quick
      test_path_equality_orientation_insensitive;
    c "smaller path not implied" `Quick test_smaller_path_not_implied;
    c "closed policy" `Quick test_closed_policy;
    c "authorizing_rule cites the grant" `Quick test_authorizing_rule;
    c "add / union" `Quick test_add_union;
    c "servers" `Quick test_servers;
    c "the epoch moves and restores" `Quick test_epoch_moves_and_restores;
    Helpers.qcheck prop_monotone_attrs;
    Helpers.qcheck prop_rule_id_is_identity;
  ]
