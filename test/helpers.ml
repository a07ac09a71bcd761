(* Shared test utilities: Alcotest testables for the library's types and
   shorthands used across the suites. *)

open Relalg

let value = Alcotest.testable Value.pp Value.equal

let attribute = Alcotest.testable Attribute.pp_qualified Attribute.equal

let attribute_set =
  Alcotest.testable Attribute.Set.pp Attribute.Set.equal

let server = Alcotest.testable Server.pp Server.equal
let schema = Alcotest.testable Schema.pp Schema.equal
let joinpath = Alcotest.testable Joinpath.pp Joinpath.equal

let join_cond =
  Alcotest.testable Joinpath.Cond.pp Joinpath.Cond.equal

let tuple = Alcotest.testable Tuple.pp Tuple.equal
let relation = Alcotest.testable Relation.pp Relation.equal
let profile = Alcotest.testable Authz.Profile.pp Authz.Profile.equal

let authorization =
  Alcotest.testable Authz.Authorization.pp Authz.Authorization.equal

let assignment =
  Alcotest.testable Planner.Assignment.pp Planner.Assignment.equal

let executor =
  Alcotest.testable Planner.Assignment.pp_executor (fun a b ->
      Server.equal a.Planner.Assignment.master b.Planner.Assignment.master
      && Option.equal Server.equal a.Planner.Assignment.slave
           b.Planner.Assignment.slave)

(* Shorthands. *)

let attrs = Attribute.Set.of_list
let names set = List.map Attribute.name (Attribute.Set.elements set)

(* Quick relation literal: [rel ~key:["K"] "R" ["K";"A"] rows] with
   string values. *)
let rel ?(key = []) name attr_names rows =
  let schema = Schema.make name ~key attr_names in
  Relation.of_rows schema
    (List.map (List.map (fun s -> Value.String s)) rows)

(* [Policy.authorizing_rule] for a flow known only by its profile: the
   path interned by the rules that use it, no rule when none does. *)
let authorizing_rule policy (profile : Authz.Profile.t) receiver =
  Option.bind (Authz.Intern.find_path profile.join) (fun path_id ->
      Authz.Policy.authorizing_rule policy ~path_id receiver
        (Authz.Profile.visible profile))

let check_ok pp = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" pp e

let qcheck = QCheck_alcotest.to_alcotest

(* The state a policy change maintains in place, against rebuilding
   it: the handle's base epoch against the epoch of the same rules
   added in reverse order, and every closure rule's interned ids
   against the ids re-interning its parts gives. [None] when both
   hold. *)
let maintained_state_error h =
  let module A = Authz.Authorization in
  let module P = Authz.Policy in
  let base = Authz.Chase.policy h in
  let rebuilt = P.of_list (List.rev (P.authorizations base)) in
  let stale (a : A.t) =
    let b = A.make_exn ~attrs:a.attrs ~path:a.path a.server in
    a.id <> b.id || a.attrs_id <> b.attrs_id || a.path_id <> b.path_id
  in
  if not (String.equal (P.epoch base) (P.epoch rebuilt)) then
    Some
      (Fmt.str "base epoch %s, rebuilt in reverse order %s" (P.epoch base)
         (P.epoch rebuilt))
  else
    Option.map
      (Fmt.str "closure rule %a carries stale ids" A.pp)
      (List.find_opt stale (P.authorizations (Authz.Chase.closure h)))

(* [contains ~sub s] — naive substring search, for output assertions. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0
