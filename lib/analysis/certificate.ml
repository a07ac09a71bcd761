open Relalg
open Authz
module Safety = Planner.Safety

(* ------------------------------------------------------------------ *)
(* Epoch.                                                              *)

(* The policy keeps its own fingerprint, moved in O(1) by every grant
   and revoke, so pinning a certificate costs no rendering. MD5 is
   ample for a cache pin (no adversary controls the policy). *)
let epoch = Policy.epoch

(* ------------------------------------------------------------------ *)
(* The language.                                                       *)

type justification = Chase.justification =
  | Granted
  | Composed of { left : int; right : int; via : Joinpath.Cond.t }

type rule = { auth : Authorization.t; just : justification }

type flow_evidence = {
  at : int;
  sender : Server.t;
  receiver : Server.t;
  profile : Profile.t;
  witness : int;
}

type plan_cert = {
  epoch : string;
  third_party : bool;
  order : string list option;
  assignment : Planner.Assignment.t;
  rules : rule list;
  flows : flow_evidence list;
}

(* Emission prunes [rules] to exactly the transitive dependency set of
   the flow witnesses, so the interned ids below are the full support
   of the certificate: a base-policy revocation can touch the plan's
   proof iff the revoked rule's id appears here (any Composed rule's
   premise chain bottoms out in Granted rules that are also listed). *)
let rule_ids (cert : plan_cert) =
  List.sort_uniq Int.compare
    (List.map (fun r -> r.auth.Authorization.id) cert.rules)

type tree =
  | Stored of { relation : string }
  | Received of { seq : int; sender : Server.t; profile : Profile.t }
  | Joined of { via : Joinpath.Cond.t; left : tree; right : tree }

type leak_cert = {
  epoch : string;
  server : Server.t;
  profile : Profile.t;
  tree : tree;
}

type delivery = {
  d_seq : int;
  d_sender : Server.t;
  d_receiver : Server.t;
  d_profile : Profile.t;
}

(* Mirrors the numbering of [Knowledge.of_flow_batches]: one global
   sequence over all batches, in order. *)
let deliveries_of_batches batches =
  let seq = ref (-1) in
  List.concat_map
    (List.map (fun (f : Safety.flow) ->
         incr seq;
         {
           d_seq = !seq;
           d_sender = f.sender;
           d_receiver = f.receiver;
           d_profile = f.profile;
         }))
    batches

(* ------------------------------------------------------------------ *)
(* Failures.                                                           *)

type failure =
  | Stale_epoch of { expected : string; found : string }
  | Open_policy
  | Premise_out_of_range of { rule : int; premise : int }
  | Not_granted of { rule : int }
  | Unknown_condition of { rule : int }
  | Composition_server of { rule : int }
  | Composition_sides of { rule : int }
  | Composition_union of { rule : int }
  | Plan_structure of string
  | Order_mismatch of { plan : string list; certificate : string list }
  | Flow_unevidenced of { node : int }
  | Flow_fabricated of { node : int }
  | Witness_out_of_range of { node : int; witness : int }
  | Witness_server of { node : int }
  | Witness_attrs of { node : int }
  | Witness_path of { node : int }
  | Tree_leaf_not_stored of { relation : string }
  | Tree_delivery_unknown of { seq : int }
  | Tree_join_inapplicable
  | Tree_root_mismatch
  | Tree_trivial
  | Not_a_leak

let pp_failure ppf = function
  | Stale_epoch { expected; found } ->
    Fmt.pf ppf "stale certificate: policy epoch is %s, certificate carries %s"
      expected found
  | Open_policy -> Fmt.pf ppf "certificates apply to closed policies only"
  | Premise_out_of_range { rule; premise } ->
    Fmt.pf ppf "rule %d: premise %d is not an earlier rule of the certificate"
      rule premise
  | Not_granted { rule } ->
    Fmt.pf ppf "rule %d is not granted by the base policy" rule
  | Unknown_condition { rule } ->
    Fmt.pf ppf "rule %d: composition condition is not in the join graph" rule
  | Composition_server { rule } ->
    Fmt.pf ppf "rule %d: premises and conclusion name different servers" rule
  | Composition_sides { rule } ->
    Fmt.pf ppf "rule %d: premises do not cover the two sides of the condition"
      rule
  | Composition_union { rule } ->
    Fmt.pf ppf "rule %d: conclusion is not the merge of its premises" rule
  | Plan_structure msg -> Fmt.pf ppf "plan structure: %s" msg
  | Order_mismatch { plan; certificate } ->
    let order = Fmt.(list ~sep:(any " > ") string) in
    Fmt.pf ppf "certificate proves join order %a, the plan joins %a" order
      certificate order plan
  | Flow_unevidenced { node } ->
    Fmt.pf ppf "flow at node n%d has no evidence in the certificate" node
  | Flow_fabricated { node } ->
    Fmt.pf ppf
      "certificate evidences a flow at node n%d the plan does not perform" node
  | Witness_out_of_range { node; witness } ->
    Fmt.pf ppf "node n%d: witness %d is not a rule of the certificate" node
      witness
  | Witness_server { node } ->
    Fmt.pf ppf "node n%d: witness rule names a different server than the receiver"
      node
  | Witness_attrs { node } ->
    Fmt.pf ppf
      "node n%d: flow attributes are not a subset of the witness attributes"
      node
  | Witness_path { node } ->
    Fmt.pf ppf "node n%d: flow join path differs from the witness path" node
  | Tree_leaf_not_stored { relation } ->
    Fmt.pf ppf "join tree cites relation %s not stored at the server" relation
  | Tree_delivery_unknown { seq } ->
    Fmt.pf ppf "join tree cites delivery #%d that never happened" seq
  | Tree_join_inapplicable ->
    Fmt.pf ppf "join tree applies a condition its operands do not support"
  | Tree_root_mismatch ->
    Fmt.pf ppf "join tree does not derive the claimed leaking profile"
  | Tree_trivial ->
    Fmt.pf ppf
      "join tree derives the profile without any received delivery or local join"
  | Not_a_leak ->
    Fmt.pf ppf "claimed leak is admitted by the policy (not a counterexample)"

let location_of = function
  | Flow_unevidenced { node }
  | Flow_fabricated { node }
  | Witness_out_of_range { node; _ }
  | Witness_server { node }
  | Witness_attrs { node }
  | Witness_path { node } ->
    Diagnostic.Node node
  | _ -> Diagnostic.Whole

let to_diagnostics failures =
  List.map
    (fun f -> Diagnostic.make "CISQP050" (location_of f) "%a" pp_failure f)
    failures

(* ------------------------------------------------------------------ *)
(* Checker.                                                            *)

let covers (attrs : Attribute.Set.t) side =
  List.for_all (fun a -> Attribute.Set.mem a attrs) side

(* One left-to-right pass: rule [i] may only cite rules [< i], so a
   single array suffices and no fixpoint is ever computed. *)
let check_rules ~joins policy rules =
  let rules = Array.of_list rules in
  let failures = ref [] in
  let fail f = failures := f :: !failures in
  Array.iteri
    (fun i { auth; just } ->
      let a : Authorization.t = auth in
      match just with
      | Granted -> if not (Policy.mem a policy) then fail (Not_granted { rule = i })
      | Composed { left; right; via } ->
        if left < 0 || left >= i then
          fail (Premise_out_of_range { rule = i; premise = left })
        else if right < 0 || right >= i then
          fail (Premise_out_of_range { rule = i; premise = right })
        else begin
          let l : Authorization.t = rules.(left).auth in
          let r : Authorization.t = rules.(right).auth in
          if not (List.exists (Joinpath.Cond.equal via) joins) then
            fail (Unknown_condition { rule = i });
          if
            not
              (Server.equal a.server l.server && Server.equal a.server r.server)
          then fail (Composition_server { rule = i });
          let jl = Joinpath.Cond.left via and jr = Joinpath.Cond.right via in
          if
            not
              ((covers l.attrs jl && covers r.attrs jr)
               || (covers l.attrs jr && covers r.attrs jl))
          then fail (Composition_sides { rule = i });
          if
            not
              (Attribute.Set.equal a.attrs
                 (Attribute.Set.union l.attrs r.attrs)
               && Joinpath.equal a.path
                    (Joinpath.add via (Joinpath.union l.path r.path)))
          then fail (Composition_union { rule = i })
        end)
    rules;
  List.rev !failures

let check_plan ?(revalidate = false) ~joins catalog policy plan
    (cert : plan_cert) =
  let failures = ref [] in
  let fail f = failures := f :: !failures in
  if Policy.is_open policy then [ Open_policy ]
  else begin
    (if not revalidate then
       let e = epoch policy in
       if not (String.equal e cert.epoch) then
         fail (Stale_epoch { expected = e; found = cert.epoch }));
    (match cert.order with
     | None -> ()
     | Some certificate ->
       let plan = Plan.relations plan in
       if not (List.equal String.equal plan certificate) then
         fail (Order_mismatch { plan; certificate }));
    List.iter fail (check_rules ~joins policy cert.rules);
    let rules = Array.of_list cert.rules in
    let nrules = Array.length rules in
    List.iter
      (fun ev ->
        if ev.witness < 0 || ev.witness >= nrules then
          fail (Witness_out_of_range { node = ev.at; witness = ev.witness })
        else begin
          let w : Authorization.t = rules.(ev.witness).auth in
          if not (Server.equal w.server ev.receiver) then
            fail (Witness_server { node = ev.at });
          if not (Attribute.Set.subset (Profile.visible ev.profile) w.attrs)
          then fail (Witness_attrs { node = ev.at });
          if not (Joinpath.equal ev.profile.Profile.join w.path) then
            fail (Witness_path { node = ev.at })
        end)
      cert.flows;
    (* The evidenced flows must agree, as a multiset, with the flows
       the plan structurally performs under the certified assignment
       ([Safety.flows] is a single plan traversal, independent of the
       planner). *)
    (match Safety.flows ~third_party:cert.third_party catalog plan cert.assignment with
     | Error e -> fail (Plan_structure (Fmt.str "%a" Safety.pp_error e))
     | Ok actual ->
       let cmp (a1, s1, r1, p1) (a2, s2, r2, p2) =
         match Int.compare a1 a2 with
         | 0 -> (
           match Server.compare s1 s2 with
           | 0 -> (
             match Server.compare r1 r2 with
             | 0 -> Profile.compare p1 p2
             | c -> c)
           | c -> c)
         | c -> c
       in
       let akey (f : Safety.flow) = (f.at, f.sender, f.receiver, f.profile) in
       let ekey ev = (ev.at, ev.sender, ev.receiver, ev.profile) in
       let actual =
         List.sort (fun a b -> cmp (akey a) (akey b)) actual
       in
       let evidenced =
         List.sort (fun a b -> cmp (ekey a) (ekey b)) cert.flows
       in
       let rec merge xs ys =
         match (xs, ys) with
         | [], [] -> ()
         | (x : Safety.flow) :: xs', [] ->
           fail (Flow_unevidenced { node = x.at });
           merge xs' []
         | [], y :: ys' ->
           fail (Flow_fabricated { node = y.at });
           merge [] ys'
         | x :: xs', y :: ys' ->
           let c = cmp (akey x) (ekey y) in
           if c = 0 then merge xs' ys'
           else if c < 0 then begin
             fail (Flow_unevidenced { node = x.at });
             merge xs' ys
           end
           else begin
             fail (Flow_fabricated { node = y.at });
             merge xs ys'
           end
       in
       merge actual evidenced);
    List.rev !failures
  end

let check_leak ?(revalidate = false) ~joins catalog policy ~deliveries
    (cert : leak_cert) =
  let failures = ref [] in
  let fail f = failures := f :: !failures in
  if Policy.is_open policy then [ Open_policy ]
  else begin
    (if not revalidate then
       let e = epoch policy in
       if not (String.equal e cert.epoch) then
         fail (Stale_epoch { expected = e; found = cert.epoch }));
    (* One bottom-up walk; [Error] aborts the walk with the first
       structural defect, everything else accumulates. *)
    let rec eval = function
      | Stored { relation } -> (
        match Catalog.relation catalog relation with
        | Error _ -> Error (Tree_leaf_not_stored { relation })
        | Ok sch ->
          if Catalog.stores catalog relation cert.server then
            Ok (Profile.of_base sch, false, false)
          else Error (Tree_leaf_not_stored { relation }))
      | Received { seq; sender; profile } ->
        if
          List.exists
            (fun d ->
              d.d_seq = seq
              && Server.equal d.d_sender sender
              && Server.equal d.d_receiver cert.server
              && Profile.equal d.d_profile profile)
            deliveries
        then Ok (profile, true, false)
        else Error (Tree_delivery_unknown { seq })
      | Joined { via; left; right } -> (
        match eval left with
        | Error _ as e -> e
        | Ok (lp, lr, _) -> (
          match eval right with
          | Error _ as e -> e
          | Ok (rp, rr, _) ->
            if not (List.exists (Joinpath.Cond.equal via) joins) then
              Error Tree_join_inapplicable
            else (
              match Profile.try_join via lp rp with
              | None -> Error Tree_join_inapplicable
              | Some p -> Ok (p, lr || rr, true))))
    in
    (match eval cert.tree with
     | Error f -> fail f
     | Ok (root, received, joined) ->
       if not (Profile.equal root cert.profile) then fail Tree_root_mismatch;
       if not (received && joined) then fail Tree_trivial;
       if Policy.can_view policy cert.profile cert.server then fail Not_a_leak);
    List.rev !failures
  end

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)

let rules_of_trace base trace =
  List.map
    (fun (auth, just) -> { auth; just })
    (Chase.entries (Chase.table_of_trace base trace))

let ( let* ) = Result.bind

let emit_plan ?(third_party = false) ?closed catalog policy plan assignment =
  let base, closure, table =
    match closed with
    | Some c -> (Chase.policy c, Chase.closure c, Chase.table c)
    | None -> (policy, policy, Chase.table_of_trace policy [])
  in
  if Policy.is_open base then
    Error "certificates apply to closed policies only"
  else
    match Safety.flows ~third_party catalog plan assignment with
    | Error e -> Error (Fmt.str "%a" Safety.pp_error e)
    | Ok flows ->
      let rec evidence acc = function
        | [] -> Ok (List.rev acc)
        | (f : Safety.flow) :: rest -> (
          match
            Option.bind (Intern.find_path f.profile.join) (fun path_id ->
                Policy.authorizing_rule closure ~path_id f.receiver
                  (Profile.visible f.profile))
          with
          | None ->
            Error
              (Fmt.str "no witnessing rule for the flow at n%d to %a" f.at
                 Server.pp f.receiver)
          | Some w -> (
            match Chase.position table w with
            | None ->
              Error
                (Fmt.str "witness for n%d is outside the derivation trace" f.at)
            | Some witness ->
              evidence
                ({
                   at = f.at;
                   sender = f.sender;
                   receiver = f.receiver;
                   profile = f.profile;
                   witness;
                 }
                 :: acc)
                rest))
      in
      let* evidenced = evidence [] flows in
      (* Keep the rules the witnesses transitively cite — walking back
         from the witnesses only, so the cost follows the certificate,
         not the closure — renumbered in table order. *)
      let remap = Hashtbl.create 16 in
      let rec keep i =
        if not (Hashtbl.mem remap i) then begin
          Hashtbl.add remap i 0;
          match Chase.entry table i with
          | _, Granted -> ()
          | _, Composed { left; right; _ } ->
            keep left;
            keep right
        end
      in
      List.iter (fun ev -> keep ev.witness) evidenced;
      let kept = List.sort compare (Hashtbl.fold (fun i _ l -> i :: l) remap []) in
      List.iteri (fun n i -> Hashtbl.replace remap i n) kept;
      let rule i =
        match Chase.entry table i with
        | auth, Granted -> { auth; just = Granted }
        | auth, Composed { left; right; via } ->
          let left = Hashtbl.find remap left and right = Hashtbl.find remap right in
          { auth; just = Composed { left; right; via } }
      in
      Ok
        {
          epoch = epoch base;
          third_party;
          order = Some (Plan.relations plan);
          assignment;
          rules = List.map rule kept;
          flows =
            List.map
              (fun ev -> { ev with witness = Hashtbl.find remap ev.witness })
              evidenced;
        }

let certify ?closed catalog policy plan assignment =
  let third_party = Planner.Third_party.rescues_of plan assignment <> [] in
  if Policy.is_open policy then
    match Safety.check ~third_party catalog policy plan assignment with
    | Ok _ -> Ok None
    | Error (`Structure e) -> Error (Fmt.str "%a" Safety.pp_error e)
    | Error (`Violations vs) ->
      Error (Fmt.str "%a" Safety.pp_violation (List.hd vs))
  else
    let* cert = emit_plan ~third_party ?closed catalog policy plan assignment in
    let base, joins =
      match closed with
      | Some c -> (Chase.policy c, Chase.joins c)
      | None -> (policy, [])
    in
    match check_plan ~joins catalog base plan cert with
    | [] -> Ok (Some cert)
    | f :: _ -> Error (Fmt.str "%a" pp_failure f)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let rec pp_tree ppf = function
  | Stored { relation } -> Fmt.string ppf relation
  | Received { seq; sender; profile } ->
    Fmt.pf ppf "delivery #%d of %a from %a" seq Profile.pp profile Server.pp
      sender
  | Joined { via; left; right } ->
    Fmt.pf ppf "(%a join[%a] %a)" pp_tree left Joinpath.Cond.pp via pp_tree
      right

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let kind_tag = "cisqp-plan-certificate"

let json_of_attr a =
  Json.Str (Attribute.relation a ^ "." ^ Attribute.name a)

let json_of_attrs set =
  Json.Arr (List.map json_of_attr (Attribute.Set.elements set))

let json_of_cond c =
  Json.Obj
    [
      ("left", Json.Arr (List.map json_of_attr (Joinpath.Cond.left c)));
      ("right", Json.Arr (List.map json_of_attr (Joinpath.Cond.right c)));
    ]

let json_of_path p =
  Json.Arr (List.map json_of_cond (Joinpath.conditions p))

let json_of_profile (p : Profile.t) =
  Json.Obj
    [
      ("pi", json_of_attrs p.pi);
      ("join", json_of_path p.join);
      ("sigma", json_of_attrs p.sigma);
    ]

let json_of_auth (a : Authorization.t) =
  Json.Obj
    [
      ("server", Json.Str (Server.name a.server));
      ("attrs", json_of_attrs a.attrs);
      ("path", json_of_path a.path);
    ]

let json_of_rule r =
  match r.just with
  | Granted -> Json.Obj [ ("auth", json_of_auth r.auth) ]
  | Composed { left; right; via } ->
    Json.Obj
      [
        ("auth", json_of_auth r.auth);
        ("left", Json.Num (float_of_int left));
        ("right", Json.Num (float_of_int right));
        ("via", json_of_cond via);
      ]

let json_of_flow ev =
  Json.Obj
    [
      ("at", Json.Num (float_of_int ev.at));
      ("sender", Json.Str (Server.name ev.sender));
      ("receiver", Json.Str (Server.name ev.receiver));
      ("profile", json_of_profile ev.profile);
      ("witness", Json.Num (float_of_int ev.witness));
    ]

let json_of_assignment a =
  Json.Arr
    (List.map
       (fun (node, (e : Planner.Assignment.executor)) ->
         Json.Obj
           (( "node", Json.Num (float_of_int node) )
            :: ("master", Json.Str (Server.name e.master))
            :: (match e.slave with
                | None -> []
                | Some s -> [ ("slave", Json.Str (Server.name s)) ])
            @ match e.coordinator with
              | None -> []
              | Some s -> [ ("coordinator", Json.Str (Server.name s)) ]))
       (Planner.Assignment.bindings a))

let plan_to_json (cert : plan_cert) =
  let order =
    match cert.order with
    | None -> []
    | Some order -> [ ("order", Json.Arr (List.map (fun r -> Json.Str r) order)) ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("kind", Json.Str kind_tag);
          ("version", Json.Num 1.0);
          ("epoch", Json.Str cert.epoch);
          ("third_party", Json.Bool cert.third_party);
        ]
       @ order
       @ [
           ("assignment", json_of_assignment cert.assignment);
           ("rules", Json.Arr (List.map json_of_rule cert.rules));
           ("flows", Json.Arr (List.map json_of_flow cert.flows));
         ]))

(* Parsing: every interned value is rebuilt through its checked
   constructor, so a malformed certificate fails here rather than
   corrupting the checker. *)

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_of = function
  | Json.Str s -> Ok s
  | _ -> Error "expected a string"

let int_of j =
  match Json.to_int j with
  | Some i -> Ok i
  | None -> Error "expected an integer"

let bool_of j =
  match Json.to_bool j with
  | Some b -> Ok b
  | None -> Error "expected a boolean"

let list_of j =
  match Json.to_list j with
  | Some l -> Ok l
  | None -> Error "expected an array"

let rec map_m f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_m f xs in
    Ok (y :: ys)

let attr_of_json j =
  let* s = str_of j in
  match String.index_opt s '.' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    try
      Ok
        (Attribute.make
           ~relation:(String.sub s 0 i)
           (String.sub s (i + 1) (String.length s - i - 1)))
    with Invalid_argument m -> Error m)
  | _ -> Error (Printf.sprintf "malformed attribute %S" s)

let attrs_of_json j =
  let* l = list_of j in
  let* attrs = map_m attr_of_json l in
  Ok (Attribute.Set.of_list attrs)

let cond_of_json j =
  let* left = field "left" j in
  let* left = list_of left in
  let* left = map_m attr_of_json left in
  let* right = field "right" j in
  let* right = list_of right in
  let* right = map_m attr_of_json right in
  try Ok (Joinpath.Cond.make ~left ~right)
  with Invalid_argument m -> Error m

let path_of_json j =
  let* l = list_of j in
  let* conds = map_m cond_of_json l in
  Ok (Joinpath.of_list conds)

let server_of_json j =
  let* s = str_of j in
  try Ok (Server.make s) with Invalid_argument m -> Error m

let profile_of_json j =
  let* pi = Result.bind (field "pi" j) attrs_of_json in
  let* join = Result.bind (field "join" j) path_of_json in
  let* sigma = Result.bind (field "sigma" j) attrs_of_json in
  Ok (Profile.make ~pi ~join ~sigma)

let auth_of_json j =
  let* server = Result.bind (field "server" j) server_of_json in
  let* attrs = Result.bind (field "attrs" j) attrs_of_json in
  let* path = Result.bind (field "path" j) path_of_json in
  Result.map_error
    (Fmt.str "%a" Authorization.pp_error)
    (Authorization.make ~attrs ~path server)

let rule_of_json j =
  let* auth = Result.bind (field "auth" j) auth_of_json in
  match Json.member "via" j with
  | None -> Ok { auth; just = Granted }
  | Some via_j ->
    let* via = cond_of_json via_j in
    let* left = Result.bind (field "left" j) int_of in
    let* right = Result.bind (field "right" j) int_of in
    Ok { auth; just = Composed { left; right; via } }

let flow_of_json j =
  let* at = Result.bind (field "at" j) int_of in
  let* sender = Result.bind (field "sender" j) server_of_json in
  let* receiver = Result.bind (field "receiver" j) server_of_json in
  let* profile = Result.bind (field "profile" j) profile_of_json in
  let* witness = Result.bind (field "witness" j) int_of in
  Ok { at; sender; receiver; profile; witness }

let executor_of_json j =
  let* node = Result.bind (field "node" j) int_of in
  let* master = Result.bind (field "master" j) server_of_json in
  let opt name =
    match Json.member name j with
    | None -> Ok None
    | Some v ->
      let* s = server_of_json v in
      Ok (Some s)
  in
  let* slave = opt "slave" in
  let* coordinator = opt "coordinator" in
  Ok (node, Planner.Assignment.executor ?slave ?coordinator master)

let assignment_of_json j =
  let* l = list_of j in
  let* entries = map_m executor_of_json l in
  Ok
    (List.fold_left
       (fun a (node, e) -> Planner.Assignment.set node e a)
       Planner.Assignment.empty entries)

let plan_of_json text =
  let* j = Json.parse text in
  let* kind = Result.bind (field "kind" j) str_of in
  if kind <> kind_tag then
    Error (Printf.sprintf "not a plan certificate (kind %S)" kind)
  else
    let* version = Result.bind (field "version" j) int_of in
    if version <> 1 then
      Error (Printf.sprintf "unsupported certificate version %d" version)
    else
      let* epoch = Result.bind (field "epoch" j) str_of in
      let* third_party = Result.bind (field "third_party" j) bool_of in
      (* Written before certificates named their order: the SQL order. *)
      let* order =
        match Json.member "order" j with
        | None -> Ok None
        | Some o ->
          let* l = list_of o in
          let* names = map_m str_of l in
          Ok (Some names)
      in
      let* assignment = Result.bind (field "assignment" j) assignment_of_json in
      let* rules_j = Result.bind (field "rules" j) list_of in
      let* rules = map_m rule_of_json rules_j in
      let* flows_j = Result.bind (field "flows" j) list_of in
      let* flows = map_m flow_of_json flows_j in
      Ok { epoch; third_party; order; assignment; rules; flows }
