open Relalg
open Authz

let fig1_schema () = Fmt.str "%a" Catalog.pp Medical.catalog

let fig2_query_plan () =
  let plan = Medical.example_plan () in
  Fmt.str "@[<v>%a@,@,%a@]" Fmt.(list ~sep:(any "") string)
    [ Medical.example_query_sql ]
    Plan.pp_tree plan

(* Printed in the paper's own order (Policy.pp sorts by server). *)
let fig3_authorizations () =
  Fmt.str "%a"
    Fmt.(
      list ~sep:(any "@\n") (fun ppf (i, a) ->
          pf ppf "%2d %a" (i + 1) Authorization.pp a))
    (List.mapi (fun i a -> (i, a)) Medical.authorizations)

(* Figure 4 is a symbolic table; we demonstrate each row on concrete
   relations of the scenario so that the printed profiles are produced
   by the very functions the planner uses. *)
let fig4_profile_rules () =
  let insurance = Profile.of_base Medical.insurance in
  let hospital = Profile.of_base Medical.hospital in
  let x = Attribute.Set.of_list [ Medical.attr "Holder" ] in
  let cond =
    Joinpath.Cond.eq (Medical.attr "Holder") (Medical.attr "Patient")
  in
  Fmt.str
    "@[<v>R_l = Insurance, profile %a@,\
     R_r = Hospital,  profile %a@,\
     @,\
     pi_X(R_l)   with X = {Holder}:      %a@,\
     sigma_X(R_l) with X = {Holder}:     %a@,\
     R_l join R_r on Holder = Patient:   %a@]"
    Profile.pp insurance Profile.pp hospital Profile.pp
    (Profile.project x insurance)
    Profile.pp
    (Profile.select x insurance)
    Profile.pp
    (Profile.join cond insurance hospital)

(* Figure 5: the data exchanges of the four execution modes of a join,
   with the profile of every transmitted view, shown on the join
   Insurance ⋈ Nat_registry (node n2 of Figure 2). *)
let fig5_execution_modes () =
  let cond =
    Joinpath.Cond.eq (Medical.attr "Holder") (Medical.attr "Citizen")
  in
  let v =
    Planner.Safety.views cond
      (Profile.of_base Medical.insurance)
      (Profile.of_base Medical.nat_registry)
  in
  let row ppf (mode, steps) =
    Fmt.pf ppf "@[<v 2>%s@,%a@]" mode
      Fmt.(list ~sep:(any "@,") string)
      steps
  in
  let s p = Fmt.str "%a" Profile.pp p in
  Fmt.str "@[<v>R_l = Insurance at S_l, R_r = Nat_registry at S_r, j = %a@,%a@]"
    Joinpath.Cond.pp cond
    Fmt.(list ~sep:(any "@,") row)
    [
      ( "[S_l, NULL] (regular join at S_l)",
        [ "S_r -> S_l: R_r with profile " ^ s v.right.full ] );
      ( "[S_r, NULL] (regular join at S_r)",
        [ "S_l -> S_r: R_l with profile " ^ s v.left.full ] );
      ( "[S_l, S_r] (semi-join, S_l master)",
        [
          "S_l -> S_r: pi_Jl(R_l) with profile " ^ s v.left.keys;
          "S_r -> S_l: pi_Jl(R_l) join R_r with profile " ^ s v.left.semi;
        ] );
      ( "[S_r, S_l] (semi-join, S_r master)",
        [
          "S_r -> S_l: pi_Jr(R_r) with profile " ^ s v.right.keys;
          "S_l -> S_r: R_l join pi_Jr(R_r) with profile " ^ s v.right.semi;
        ] );
    ]

let fig7_algorithm_trace () =
  let plan = Medical.example_plan () in
  match Planner.Safe_planner.plan Medical.catalog Medical.policy plan with
  | Ok { trace; _ } -> Fmt.str "%a" Planner.Safe_planner.pp_trace trace
  | Error f -> Fmt.str "%a" Planner.Safe_planner.pp_failure f

let all () =
  let section caption body =
    Printf.sprintf "=== %s ===\n%s\n" caption body
  in
  String.concat "\n"
    [
      section "Figure 1: schema of the distributed system" (fig1_schema ());
      section "Figure 2: query tree plan of Example 2.2" (fig2_query_plan ());
      section "Figure 3: authorizations" (fig3_authorizations ());
      section "Figure 4: profiles resulting from operations"
        (fig4_profile_rules ());
      section "Figure 5: execution modes and required views"
        (fig5_execution_modes ());
      section "Figures 6-7: algorithm execution" (fig7_algorithm_trace ());
    ]
