module Tree_relation = Tree_relation
module Interpreter = Interpreter

open Relalg
open Authz
module K = Analysis.Knowledge

(* The merge rule, structurally: no interning, no memos and no
   adds-nothing skip, so a defect in the id-level merge of
   [Chase.rounds] cannot hide from the differential. It is symmetric in
   [a1] and [a2]: the unions commute and [covers] tests both
   orientations. *)
let merge (a1 : Authorization.t) (a2 : Authorization.t) j =
  let covers attrs = List.for_all (fun a -> Attribute.Set.mem a attrs) in
  let jl = Joinpath.Cond.left j and jr = Joinpath.Cond.right j in
  if
    Server.equal a1.server a2.server
    && ((covers a1.attrs jl && covers a2.attrs jr)
       || (covers a1.attrs jr && covers a2.attrs jl))
  then
    Some
      ( Attribute.Set.union a1.attrs a2.attrs,
        Joinpath.add j (Joinpath.union a1.path a2.path) )
  else None

(* Every unordered pair once per round. Nearly every merge of a late
   round is a view the round-start policy already admits, so the rule
   is built and validated only when it is fresh. Admission is against
   the round-start policy, where a rule added by an earlier round
   admits itself: a round that finds fresh rules grows the policy. *)
let close_chase ?(max_rules = 100_000) ~joins policy =
  let rec fixpoint policy =
    if Policy.cardinality policy > max_rules then
      invalid_arg
        (Printf.sprintf "Oracle.close_chase: closure exceeds %d rules"
           max_rules);
    let rules = Array.of_list (Policy.authorizations policy) in
    let fresh = ref [] in
    Array.iteri
      (fun i (a1 : Authorization.t) ->
        for k = i to Array.length rules - 1 do
          List.iter
            (fun j ->
              match merge a1 rules.(k) j with
              | Some (attrs, path)
                when not
                       (Policy.can_view policy
                          (Profile.make ~pi:attrs ~join:path
                             ~sigma:Attribute.Set.empty)
                          a1.server) -> (
                match Authorization.make ~attrs ~path a1.server with
                | Ok d -> fresh := d :: !fresh
                | Error _ -> ())
              | _ -> ())
            joins
        done)
      rules;
    if !fresh = [] then policy
    else
      let next = List.fold_left (fun p d -> Policy.add d p) policy !fresh in
      if Policy.cardinality next = Policy.cardinality policy then
        invalid_arg "Oracle.close_chase: a round's fresh rules add nothing";
      fixpoint next
  in
  fixpoint policy

(* Structural membership tests, one [Profile.try_join] per candidate
   pair and sort_uniq witness merges: no interning, no memos and no
   subsumption, so a defect in the id-level engine of [Knowledge]
   cannot hide from the differential. *)
module PMap = Map.Make (Profile)

let saturate ?(budget = K.default_budget) ~joins t =
  let exhausted = ref [] in
  let sides =
    List.map
      (fun cond ->
        ( cond,
          Attribute.Set.of_list (Joinpath.Cond.left cond),
          Attribute.Set.of_list (Joinpath.Cond.right cond) ))
      joins
  in
  let saturate_server knowledge server =
    let seeds = K.items t server in
    let table =
      List.fold_left
        (fun m (it : K.item) -> PMap.add it.profile it m)
        PMap.empty seeds
      |> ref
    in
    let knowledge = ref knowledge in
    let bucket : (Attribute.t, Profile.t) Hashtbl.t = Hashtbl.create 64 in
    let index (p : Profile.t) =
      Attribute.Set.iter (fun a -> Hashtbl.add bucket a p) p.Profile.pi
    in
    let covering side =
      match Attribute.Set.min_elt_opt side with
      | None -> []
      | Some probe ->
        List.filter
          (fun (q : Profile.t) -> Attribute.Set.subset side q.Profile.pi)
          (Hashtbl.find_all bucket probe)
    in
    let queue = Queue.create () in
    List.iter (fun (it : K.item) -> index it.profile; Queue.add it queue) seeds;
    let stop = ref false in
    while (not !stop) && not (Queue.is_empty queue) do
      let (p : K.item) = Queue.pop queue in
      let pi = p.profile.Profile.pi in
      List.iter
        (fun (cond, jl, jr) ->
          (* Sorted for determinism: the bucket order depends on
             insertion history, and first-found wins below. *)
          List.sort_uniq Profile.compare
            ((if Attribute.Set.subset jl pi then covering jr else [])
            @ if Attribute.Set.subset jr pi then covering jl else [])
          |> List.iter (fun q_profile ->
                 if not !stop then
                   let (q : K.item) = PMap.find q_profile !table in
                   match Profile.try_join cond p.profile q.profile with
                   | Some joined when not (PMap.mem joined !table) ->
                     if PMap.cardinal !table >= budget then begin
                       stop := true;
                       exhausted := server :: !exhausted
                     end
                     else begin
                       let it =
                         {
                           K.profile = joined;
                           sources =
                             List.sort_uniq
                               (fun (s1 : K.source) s2 ->
                                 Int.compare s1.seq s2.seq)
                               (p.sources @ q.sources);
                           via =
                             List.sort_uniq Joinpath.Cond.compare
                               (cond :: (p.via @ q.via));
                         }
                       in
                       table := PMap.add joined it !table;
                       knowledge := K.add server it !knowledge;
                       index joined;
                       Queue.add it queue
                     end
                   | _ -> ()))
        sides
    done;
    !knowledge
  in
  let knowledge = List.fold_left saturate_server t (K.servers t) in
  { K.knowledge; exhausted = List.sort_uniq Server.compare !exhausted }

let subset a b =
  List.for_all
    (fun s -> List.for_all (K.mem b s) (K.profiles a s))
    (K.servers a)

let equal a b = subset a b && subset b a

let covered_by a b =
  let dominates (q : Profile.t) (p : Profile.t) =
    Joinpath.equal p.join q.join
    && Attribute.Set.subset p.pi q.pi
    && Attribute.Set.subset p.sigma q.sigma
  in
  List.for_all
    (fun s ->
      let others = K.profiles b s in
      List.for_all
        (fun p -> List.exists (fun q -> dominates q p) others)
        (K.profiles a s))
    (K.servers a)

let source_of (m : Distsim.Network.message) =
  { K.seq = m.seq; sender = m.sender; note = m.note }

let runtime_knowledge catalog network =
  List.fold_left
    (fun k (m : Distsim.Network.message) ->
      K.receive ~receiver:m.receiver ~source:(source_of m) m.profile k)
    (K.of_catalog catalog)
    (Distsim.Network.messages network)

let runtime_inference ?budget ~joins catalog policy network =
  K.lint ?budget ~joins policy (runtime_knowledge catalog network)
