open Relalg
open Authz
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check
let aset names = Attribute.Set.of_list (List.map M.attr names)

let test_single_relation_empty_path () =
  match
    Authorization.make ~attrs:(aset [ "Holder"; "Plan" ])
      ~path:Joinpath.empty M.s_i
  with
  | Ok a ->
    check Alcotest.(list string) "relations" [ "Insurance" ]
      (Authorization.relations a)
  | Error e -> Alcotest.failf "rejected: %a" Authorization.pp_error e

let test_multi_relation_requires_path () =
  match
    Authorization.make
      ~attrs:(aset [ "Holder"; "Patient" ])
      ~path:Joinpath.empty M.s_i
  with
  | Error (Authorization.Multiple_relations_without_path rels) ->
    check Alcotest.(list string) "both named" [ "Hospital"; "Insurance" ] rels
  | _ -> Alcotest.fail "accepted attributes spanning relations without a path"

let test_path_must_cover_attributes () =
  (* Path touches Insurance and Hospital, but HealthAid belongs to
     Nat_registry. *)
  match
    Authorization.make
      ~attrs:(aset [ "Holder"; "HealthAid" ])
      ~path:
        (Joinpath.singleton
           (Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient")))
      M.s_i
  with
  | Error (Authorization.Attributes_not_covered missing) ->
    check Helpers.attribute_set "HealthAid uncovered" (aset [ "HealthAid" ])
      missing
  | _ -> Alcotest.fail "uncovered attribute accepted"

let test_connectivity_constraint_allowed () =
  (* Authorization 3 of Figure 3: Hospital appears in the join path but
     releases no attribute (connectivity constraint). *)
  match
    Authorization.make
      ~attrs:(aset [ "Holder"; "Plan"; "Treatment" ])
      ~path:
        (Joinpath.of_list
           [
             Joinpath.Cond.eq (M.attr "Holder") (M.attr "Patient");
             Joinpath.Cond.eq (M.attr "Disease") (M.attr "Illness");
           ])
      M.s_i
  with
  | Ok a ->
    check Alcotest.(list string) "all three relations"
      [ "Disease_list"; "Hospital"; "Insurance" ]
      (Authorization.relations a)
  | Error e -> Alcotest.failf "rejected: %a" Authorization.pp_error e

let test_empty_attrs_rejected () =
  match
    Authorization.make ~attrs:Attribute.Set.empty ~path:Joinpath.empty M.s_i
  with
  | Error Authorization.Empty_attributes -> ()
  | _ -> Alcotest.fail "empty attribute set accepted"

let test_figure3_all_valid () =
  (* All fifteen rules of Figure 3 construct without error (they are
     built with make_exn in the scenario) and are distinct. *)
  check Alcotest.int "15 authorizations" 15 (List.length M.authorizations);
  let sorted = List.sort_uniq Authorization.compare M.authorizations in
  check Alcotest.int "all distinct" 15 (List.length sorted)

let test_ordering_groups_by_server () =
  let auths = List.sort Authorization.compare M.authorizations in
  let servers = List.map (fun a -> a.Authorization.server) auths in
  (* Sorted order groups rules of the same server together. *)
  let rec grouped seen = function
    | [] -> true
    | s :: rest ->
      if List.exists (Server.equal s) seen then
        (match rest with
         | [] -> true
         | next :: _ -> Server.equal next s || not (List.exists (Server.equal s) seen))
        && grouped seen rest
      else grouped (s :: seen) rest
  in
  ignore (grouped [] servers);
  (* Simpler check: number of "server change points" equals number of
     distinct servers - 1... at most. *)
  let changes =
    List.length
      (List.filteri
         (fun i s ->
           i > 0 && not (Server.equal s (List.nth servers (i - 1))))
         servers)
  in
  check Alcotest.bool "grouped" true (changes <= 3)

let test_pp_format () =
  let a =
    Authorization.make_exn ~attrs:(aset [ "Holder"; "Plan" ])
      ~path:Joinpath.empty M.s_i
  in
  check Alcotest.string "Figure 3 style" "[{Holder, Plan}, -] -> S_I"
    (Authorization.to_string a)

(* Bit laws: on random attribute sets and join paths, the bitsets'
   union, subset, equality and hash agree with [Attribute.Set] and
   [Joinpath]. The universes hold 150 attributes and 150 conditions, all
   interned before any set is drawn, so ids cross word boundaries; a
   scratch union, read through its view, must agree too. *)
let universe = 150
let bit_attr i = Attribute.make ~relation:"W" (Printf.sprintf "w%d" i)

let bit_cond i =
  Joinpath.Cond.eq (bit_attr i)
    (Attribute.make ~relation:"V" (Printf.sprintf "v%d" i))

let intern_universe () =
  for i = 0 to universe - 1 do
    ignore (Intern.attr_id (bit_attr i));
    ignore (Intern.cond_id (bit_cond i))
  done

let arb_picks =
  QCheck.(
    pair
      (list_of_size Gen.(0 -- 40) (int_bound (universe - 1)))
      (list_of_size Gen.(0 -- 40) (int_bound (universe - 1))))

let bits_agree ~bits ~union ~subset ~equal a b =
  let module B = Intern.Bits in
  let ba = bits a and bb = bits b in
  let scratch = B.scratch () in
  (* A wide union first, so the scratch holds stale words to clear. *)
  B.union_into scratch (bits (union a b)) (bits (union a b));
  B.union_into scratch ba bb;
  B.union ba bb = bits (union a b)
  && B.equal (B.view scratch) (bits (union a b))
  && B.hash (B.view scratch) = B.hash (bits (union a b))
  && Bool.equal (B.subset ba bb) (subset a b)
  && Bool.equal (B.subset (B.view scratch) ba) (subset (union a b) a)
  && Bool.equal (B.equal ba bb) (equal a b)
  && Bool.equal (ba = bb) (equal a b)
  && ((not (equal a b)) || B.hash ba = B.hash bb)

let prop_attr_bits =
  QCheck.Test.make ~name:"attribute bits agree with Attribute.Set" ~count:500
    arb_picks (fun (xs, ys) ->
      intern_universe ();
      let set picks = Attribute.Set.of_list (List.map bit_attr picks) in
      let a = set xs and b = set (xs @ ys) in
      bits_agree ~bits:Intern.attrs_bits ~union:Attribute.Set.union
        ~subset:Attribute.Set.subset ~equal:Attribute.Set.equal a b
      && bits_agree ~bits:Intern.attrs_bits ~union:Attribute.Set.union
           ~subset:Attribute.Set.subset ~equal:Attribute.Set.equal (set ys) a
      && Intern.Bits.elements (Intern.attrs_bits a)
         = List.sort_uniq Int.compare
             (List.map Intern.attr_id (Attribute.Set.elements a)))

let prop_path_bits =
  QCheck.Test.make ~name:"path bits agree with Joinpath" ~count:500 arb_picks
    (fun (xs, ys) ->
      intern_universe ();
      (* Flipped conditions are the same conditions. *)
      let path ?(flip = false) picks =
        Joinpath.of_list
          (List.map
             (fun i ->
               if flip then Joinpath.Cond.flip (bit_cond i) else bit_cond i)
             picks)
      in
      let a = path xs and b = path (xs @ ys) in
      bits_agree ~bits:Intern.path_bits ~union:Joinpath.union
        ~subset:Joinpath.subset ~equal:Joinpath.equal a b
      && bits_agree ~bits:Intern.path_bits ~union:Joinpath.union
           ~subset:Joinpath.subset ~equal:Joinpath.equal (path ys) a
      && Intern.path_bits (path ~flip:true xs) = Intern.path_bits a)

let test_bits_stable () =
  (* A set's bits do not move when more ids are interned, and bits
     drawn in any order are structurally equal. *)
  let set = Attribute.Set.of_list [ bit_attr 3; bit_attr 70; bit_attr 140 ] in
  let before = Intern.attrs_bits set in
  for i = 0 to 200 do
    ignore
      (Intern.attr_id (Attribute.make ~relation:"U" (Printf.sprintf "u%d" i)))
  done;
  check Alcotest.bool "same bits after more interning" true
    (before = Intern.attrs_bits set);
  check Alcotest.bool "of_list is order-free" true
    (Intern.Bits.of_list [ 140; 3; 70 ] = Intern.Bits.of_list [ 3; 70; 140 ]);
  check Alcotest.(list int) "elements" [ 3; 70; 140 ]
    (Intern.Bits.elements (Intern.Bits.of_list [ 140; 3; 70; 3 ]));
  let module B = Intern.Bits in
  check Alcotest.bool "the empty set" true
    (B.of_list [] = B.empty && B.union B.empty B.empty = B.empty)

let suite =
  [
    c "single relation, empty path" `Quick test_single_relation_empty_path;
    c "multiple relations need a path" `Quick test_multi_relation_requires_path;
    c "path must cover attribute owners" `Quick test_path_must_cover_attributes;
    c "connectivity constraints allowed" `Quick
      test_connectivity_constraint_allowed;
    c "empty attributes rejected" `Quick test_empty_attrs_rejected;
    c "Figure 3 rules all valid and distinct" `Quick test_figure3_all_valid;
    c "ordering groups by server" `Quick test_ordering_groups_by_server;
    c "printing matches Figure 3" `Quick test_pp_format;
    c "bits are stable and canonical" `Quick test_bits_stable;
    Helpers.qcheck prop_attr_bits;
    Helpers.qcheck prop_path_bits;
  ]
