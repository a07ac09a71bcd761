open Relalg
open Authz

type source = { seq : int; sender : Server.t; note : string }

type item = {
  profile : Profile.t;
  sources : source list;
  via : Joinpath.Cond.t list;
}

module PMap = Map.Make (Profile)

type t = item PMap.t Server.Map.t

let empty = Server.Map.empty

(* Witness size: fewer joins, then fewer messages. [add] and the
   saturation loop keep the smallest-rank item per profile, so the
   reported witness is (breadth-first) minimal. *)
let rank it = (List.length it.via, List.length it.sources)

let add server it t =
  let table =
    match Server.Map.find_opt server t with
    | Some table -> table
    | None -> PMap.empty
  in
  let table =
    match PMap.find_opt it.profile table with
    | Some old when rank old <= rank it -> table
    | _ -> PMap.add it.profile it table
  in
  Server.Map.add server table t

let of_catalog catalog =
  let t =
    Server.Set.fold
      (fun s t -> Server.Map.add s PMap.empty t)
      (Catalog.servers catalog) empty
  in
  List.fold_left
    (fun t schema ->
      let holders =
        match Catalog.servers_of catalog (Schema.name schema) with
        | Ok servers -> servers
        | Error _ -> []
      in
      let it =
        { profile = Profile.of_base schema; sources = []; via = [] }
      in
      List.fold_left (fun t s -> add s it t) t holders)
    t (Catalog.schemas catalog)

let receive ~receiver ~source profile t =
  add receiver { profile; sources = [ source ]; via = [] } t

let of_flow_batches catalog batches =
  let _, t =
    List.fold_left
      (fun (seq, t) flows ->
        List.fold_left
          (fun (seq, t) (f : Planner.Safety.flow) ->
            let source =
              {
                seq;
                sender = f.sender;
                note = Fmt.str "%a" Planner.Safety.pp_payload f.payload;
              }
            in
            (seq + 1, receive ~receiver:f.receiver ~source f.profile t))
          (seq, t) flows)
      (0, of_catalog catalog)
      batches
  in
  t

let servers t = List.map fst (Server.Map.bindings t)

let items t server =
  match Server.Map.find_opt server t with
  | None -> []
  | Some table -> List.map snd (PMap.bindings table)

let profiles t server = List.map (fun it -> it.profile) (items t server)

let mem t server profile =
  match Server.Map.find_opt server t with
  | None -> false
  | Some table -> PMap.mem profile table

let default_budget = 1024

type outcome = { knowledge : t; exhausted : Server.t list }

(* ------------------------------------------------------------------ *)
(* Indexed saturation engine.

   A direct engine (the test oracle, [Oracle.saturate]) re-walks
   structural sets at every step: each candidate pair pays a
   [Profile.try_join] (set subsets plus three unions), duplicate
   detection is a [Profile.compare] walk through a [PMap], and witness
   merges are [sort_uniq] list appends. Here every
   profile is hash-consed through {!Intern} to a small int id
   ([(attrs_id pi, path_id, attrs_id sigma)]), so membership, dedup and
   the adds-nothing check are int hashtable probes; join attempts are
   memoised process-wide on [(cond id, profile id, profile id)] keys
   (canonical, like the interner itself, so sharing across saturations
   is sound); and provenance travels as sets of interned ids (message
   seq numbers, condition ids) with set unions in place of the
   quadratic list appends. *)

module Int_set = Set.Make (Int)

(* A profile with its interned identities, shared process-wide through
   the [pid]-keyed registry so a derived profile is reconstructed once
   ever. *)
type pinfo = {
  p : Profile.t;
  pid : int;
  pi_id : int;
  path_id : int;
  sigma_id : int;
}

let pinfo_tbl : (int, pinfo) Hashtbl.t = Hashtbl.create 512

let intern (p : Profile.t) =
  let pi_id = Intern.attrs_id p.Profile.pi in
  let sigma_id = Intern.attrs_id p.Profile.sigma in
  let path_id = Intern.path_id p.Profile.join in
  let pid = Intern.profile_id_of ~pi_id ~path_id ~sigma_id in
  match Hashtbl.find_opt pinfo_tbl pid with
  | Some info -> info
  | None ->
    let info = { p; pid; pi_id; path_id; sigma_id } in
    Hashtbl.add pinfo_tbl pid info;
    info

(* Reverse registry of interned conditions, so witness [via] sets can
   travel as int sets and be materialised back at the end. *)
let cond_reg : (int, Joinpath.Cond.t) Hashtbl.t = Hashtbl.create 64

let cond_id c =
  let id = Intern.cond_id c in
  if not (Hashtbl.mem cond_reg id) then Hashtbl.add cond_reg id c;
  id

(* Attribute-set inclusion memoised on interned ids — the same two
   sets are compared over and over (join sides against candidate
   profiles, candidates against dominators). Sound process-wide: ids
   are canonical. *)
let subset_memo : (int * int, bool) Hashtbl.t = Hashtbl.create 4096

let subset_ids aid1 s1 aid2 s2 =
  if aid1 = aid2 then true
  else
    let key = (aid1, aid2) in
    match Hashtbl.find_opt subset_memo key with
    | Some b -> b
    | None ->
      let b = Attribute.Set.subset s1 s2 in
      Hashtbl.add subset_memo key b;
      b

(* Join attempts memoised on (condition, unordered profile pair):
   [Profile.try_join] is symmetric, so the key is orientation-free.
   The same few thousand distinct pairs are attempted from many
   frontier orders (and again on every re-run over a grown log), and
   after the first attempt a pair costs one hash probe. *)
let join_memo : (int * int * int, int option) Hashtbl.t = Hashtbl.create 4096

let try_join_ids cid cond (a : pinfo) (b : pinfo) =
  let key =
    if a.pid <= b.pid then (cid, a.pid, b.pid) else (cid, b.pid, a.pid)
  in
  match Hashtbl.find_opt join_memo key with
  | Some r -> r
  | None ->
    let r =
      match Profile.try_join cond a.p b.p with
      | None -> None
      | Some joined -> Some (intern joined).pid
    in
    Hashtbl.add join_memo key r;
    r

(* One element of an in-flight knowledge base: interned profile plus
   provenance as id sets ([srcs] = message seq numbers, [vias] =
   condition ids). *)
type entry = { info : pinfo; srcs : Int_set.t; vias : Int_set.t }

(* Qualifies for a CISQP030 report: at least one message and at least
   one saturation join (see [leaks]). *)
let leak_candidate e =
  not (Int_set.is_empty e.srcs || Int_set.is_empty e.vias)

type sstate = {
  entries : (int, entry) Hashtbl.t;  (** by profile id *)
  sides : (int * Attribute.Set.t) list;
      (** distinct join-condition sides, by interned attrs id *)
  covers : (int, int list ref) Hashtbl.t;
      (** per side id, the profile ids whose [pi] contains the side —
          maintained at insert time, so the join-partner lookup is a
          plain bucket read instead of an attribute-bucket scan per
          frontier pop *)
  by_path : (int, int list ref) Hashtbl.t;
      (** profile ids per interned join path — the subsumption probe *)
  pending : int Queue.t;  (** the frontier *)
  origins : (int, item) Hashtbl.t;
      (** provenance of seeds and deliveries, by profile id — a stored
          base relation ([sources = via = \[\]]) or one delivery
          ([sources = \[s\]; via = \[\]]); consumed by {!explain} *)
  parents : (int, int * int * int) Hashtbl.t;
      (** per derived profile id, the [(condition id, left profile id,
          right profile id)] of the join that first produced it; both
          parents were inserted strictly earlier, so walking parents
          terminates — the join tree of the certificate *)
  mutable hit_budget : bool;
}

let new_state ~sides () =
  {
    entries = Hashtbl.create 64;
    sides;
    covers = Hashtbl.create 16;
    by_path = Hashtbl.create 16;
    pending = Queue.create ();
    origins = Hashtbl.create 16;
    parents = Hashtbl.create 16;
    hit_budget = false;
  }

let push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tbl key (ref [ v ])

let insert st e =
  Hashtbl.replace st.entries e.info.pid e;
  List.iter
    (fun (sid, sset) ->
      if subset_ids sid sset e.info.pi_id e.info.p.Profile.pi then
        push st.covers sid e.info.pid)
    st.sides;
  push st.by_path e.info.path_id e.info.pid;
  Queue.add e.info.pid st.pending

(* Subsumption pruning: a fresh candidate is dropped when a retained
   entry with the SAME join path already carries at least its [pi] and
   [sigma]. Everything derivable from the candidate is then derivable
   from the dominator with a component-wise wider result (the Figure-4
   join row is monotone in both operands), and under a closed policy a
   rule admitting the dominator admits the candidate (same path,
   smaller visible set) — so the candidate can neither reach a profile
   the dominator cannot, nor leak where the dominator does not. The
   provenance guard keeps verdicts faithful: a leak-qualified candidate
   (>= 1 message, >= 1 join) is only dropped for a leak-qualified
   dominator, so a CISQP030 witness is never pruned in favour of an
   entry [leaks] would not report. *)
let dominated st (cand : pinfo) ~candidate_leaks =
  match Hashtbl.find_opt st.by_path cand.path_id with
  | None -> false
  | Some pids ->
    List.exists
      (fun pid ->
        match Hashtbl.find_opt st.entries pid with
        | None -> false
        | Some d ->
          subset_ids cand.pi_id cand.p.Profile.pi d.info.pi_id
            d.info.p.Profile.pi
          && subset_ids cand.sigma_id cand.p.Profile.sigma d.info.sigma_id
               d.info.p.Profile.sigma
          && ((not candidate_leaks) || leak_candidate d))
      !pids

(* A join condition with its interned sides. *)
type joinfo = {
  cond : Joinpath.Cond.t;
  cid : int;
  jl : Attribute.Set.t;
  jl_id : int;
  jr : Attribute.Set.t;
  jr_id : int;
}

let joinfo_of joins =
  let jinfos =
    List.map
      (fun cond ->
        let jl = Attribute.Set.of_list (Joinpath.Cond.left cond) in
        let jr = Attribute.Set.of_list (Joinpath.Cond.right cond) in
        {
          cond;
          cid = cond_id cond;
          jl;
          jl_id = Intern.attrs_id jl;
          jr;
          jr_id = Intern.attrs_id jr;
        })
      joins
  in
  let sides =
    List.sort_uniq
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.concat_map
         (fun ji -> [ (ji.jl_id, ji.jl); (ji.jr_id, ji.jr) ])
         jinfos)
  in
  (jinfos, sides)

let covering st side_id =
  match Hashtbl.find_opt st.covers side_id with
  | None -> []
  | Some pids -> !pids

(* Semi-naive frontier closure of one knowledge base. The queue holds
   exactly the entries not yet used as the left operand; a popped entry
   joins against the full current base through the per-attribute
   buckets, so over the run every unordered pair is considered once —
   at the moment its later member is popped — and fresh × old work
   never degenerates to old × old rescans. The budget caps the base's
   cardinality: derivations stop (and the server reports exhausted)
   once [budget] profiles are held; accumulated deliveries themselves
   are exempt. *)
let drain ~budget jinfos st =
  while (not st.hit_budget) && not (Queue.is_empty st.pending) do
    let pid = Queue.pop st.pending in
    let e = Hashtbl.find st.entries pid in
    List.iter
      (fun ji ->
        if not st.hit_budget then begin
          let pi = e.info.p.Profile.pi and pi_id = e.info.pi_id in
          let candidates =
            (if subset_ids ji.jl_id ji.jl pi_id pi then
               covering st ji.jr_id
             else [])
            @ (if subset_ids ji.jr_id ji.jr pi_id pi then
                 covering st ji.jl_id
               else [])
          in
          (* Sorted for determinism: bucket order depends on insertion
             history, and first-found wins for the witness. *)
          let candidates = List.sort_uniq Int.compare candidates in
          List.iter
            (fun qid ->
              if not st.hit_budget then
                let q = Hashtbl.find st.entries qid in
                match try_join_ids ji.cid ji.cond e.info q.info with
                | None -> ()
                | Some jpid ->
                  if not (Hashtbl.mem st.entries jpid) then begin
                    let jinfo = Hashtbl.find pinfo_tbl jpid in
                    let srcs = Int_set.union e.srcs q.srcs in
                    let vias =
                      Int_set.add ji.cid (Int_set.union e.vias q.vias)
                    in
                    let candidate_leaks = not (Int_set.is_empty srcs) in
                    if not (dominated st jinfo ~candidate_leaks) then begin
                      if Hashtbl.length st.entries >= budget then
                        st.hit_budget <- true
                      else begin
                        insert st { info = jinfo; srcs; vias };
                        Hashtbl.replace st.parents jpid
                          (ji.cid, e.info.pid, q.info.pid)
                      end
                    end
                  end)
            candidates
        end)
      jinfos
  done

(* Seed a server state from an accumulated table, registering every
   delivery in [sources_reg] so id sets can be materialised back. *)
let seed_state ~sides sources_reg table =
  let st = new_state ~sides () in
  PMap.iter
    (fun _ it ->
      let info = intern it.profile in
      List.iter (fun s -> Hashtbl.replace sources_reg s.seq s) it.sources;
      let srcs = Int_set.of_list (List.map (fun s -> s.seq) it.sources) in
      let vias = Int_set.of_list (List.map cond_id it.via) in
      insert st { info; srcs; vias };
      Hashtbl.replace st.origins info.pid it)
    table;
  st

let materialize sources_reg st =
  Hashtbl.fold
    (fun _ e acc ->
      let sources =
        List.map (fun seq -> Hashtbl.find sources_reg seq)
          (Int_set.elements e.srcs)
      in
      let via =
        List.sort Joinpath.Cond.compare
          (List.map (fun cid -> Hashtbl.find cond_reg cid)
             (Int_set.elements e.vias))
      in
      PMap.add e.info.p { profile = e.info.p; sources; via } acc)
    st.entries PMap.empty

(* ------------------------------------------------------------------ *)
(* The cursor: the saturated per-server states, kept with their
   provenance so a leak witness can be reconstructed from them. *)

type cursor = {
  c_states : (Server.t, sstate) Hashtbl.t;
  c_sources : (int, source) Hashtbl.t;
}

let cursor ?(budget = default_budget) ~joins t =
  let jinfos, sides = joinfo_of joins in
  let c = { c_states = Hashtbl.create 16; c_sources = Hashtbl.create 64 } in
  Server.Map.iter
    (fun server table ->
      let st = seed_state ~sides c.c_sources table in
      drain ~budget jinfos st;
      Hashtbl.replace c.c_states server st)
    t;
  c

let snapshot c =
  let knowledge =
    Hashtbl.fold
      (fun server st acc ->
        Server.Map.add server (materialize c.c_sources st) acc)
      c.c_states Server.Map.empty
  in
  let exhausted =
    Hashtbl.fold
      (fun server st acc -> if st.hit_budget then server :: acc else acc)
      c.c_states []
    |> List.sort_uniq Server.compare
  in
  { knowledge; exhausted }

let saturate ?budget ~joins t = snapshot (cursor ?budget ~joins t)

(* Reconstruct the join tree behind a derived profile from the
   recorded provenance: origins bottom out in stored relations and
   single deliveries, parents point strictly backwards, so the walk is
   linear in the tree size and never re-runs saturation. [None] when
   the profile was seeded pre-joined (a knowledge base not built by
   {!of_catalog}/{!receive}), in which case no checkable
   counterexample exists. *)
let explain c catalog server profile =
  match Hashtbl.find_opt c.c_states server with
  | None -> None
  | Some st ->
    let rec tree_of pid =
      match Hashtbl.find_opt st.origins pid with
      | Some it -> (
        match (it.sources, it.via) with
        | [], [] ->
          let stored sch =
            Catalog.stores catalog (Schema.name sch) server
            && Profile.equal (Profile.of_base sch) it.profile
          in
          (match List.find_opt stored (Catalog.schemas catalog) with
           | Some sch ->
             Some (Certificate.Stored { relation = Schema.name sch })
           | None -> None)
        | [ s ], [] ->
          Some
            (Certificate.Received
               { seq = s.seq; sender = s.sender; profile = it.profile })
        | _ -> None)
      | None -> (
        match Hashtbl.find_opt st.parents pid with
        | None -> None
        | Some (cid, lpid, rpid) -> (
          match (tree_of lpid, tree_of rpid) with
          | Some left, Some right ->
            Some
              (Certificate.Joined
                 { via = Hashtbl.find cond_reg cid; left; right })
          | _ -> None))
    in
    tree_of (intern profile).pid

(* ------------------------------------------------------------------ *)

type leak = { server : Server.t; item : item }

(* Local-only items recombine data the server already stores, and
   directly received unauthorized profiles are CISQP001 / audit
   territory — a composition leak needs at least one message and at
   least one saturation join. *)
let leaks policy t =
  Server.Map.fold
    (fun server table acc ->
      PMap.fold
        (fun _ it acc ->
          if
            it.sources <> []
            && it.via <> []
            && not (Policy.can_view policy it.profile server)
          then { server; item = it } :: acc
          else acc)
        table acc)
    t []
  |> List.rev

let pp_source ppf s =
  Fmt.pf ppf "#%d from %a (%s)" s.seq Server.pp s.sender s.note

let pp_item ppf it =
  Fmt.pf ppf "@[<h>%a" Profile.pp it.profile;
  (match it.sources with
  | [] -> Fmt.pf ppf " local"
  | ss -> Fmt.pf ppf " from %a" Fmt.(list ~sep:(any ", ") pp_source) ss);
  (match it.via with
  | [] -> ()
  | conds ->
    Fmt.pf ppf " via %a" Fmt.(list ~sep:(any ", ") Joinpath.Cond.pp) conds);
  Fmt.pf ppf "@]"

let diagnostics ~budget policy { knowledge; exhausted } =
  let leak_diags =
    List.map
      (fun { server; item } ->
        Diagnostic.make "CISQP030"
          (Diagnostic.Server (Server.name server))
          "can assemble %a by joining deliveries %a on %a; no authorization \
           admits it"
          Profile.pp item.profile
          Fmt.(list ~sep:(any ", ") pp_source)
          item.sources
          Fmt.(list ~sep:(any ", ") Joinpath.Cond.pp)
          item.via)
      (leaks policy knowledge)
  in
  let budget_diags =
    List.map
      (fun server ->
        Diagnostic.make "CISQP031"
          (Diagnostic.Server (Server.name server))
          "knowledge base reached the saturation budget (%d profiles); \
           derivations beyond it were not explored"
          budget)
      (List.sort_uniq Server.compare exhausted)
  in
  leak_diags @ budget_diags

let lint ?(budget = default_budget) ~joins policy t =
  diagnostics ~budget policy (saturate ~budget ~joins t)

let pp ppf t =
  let pp_server ppf (server, table) =
    Fmt.pf ppf "@[<v 2>%a knows:@,%a@]" Server.pp server
      Fmt.(list ~sep:(any "@,") pp_item)
      (List.map snd (PMap.bindings table))
  in
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(list ~sep:(any "@,") pp_server)
    (Server.Map.bindings t)
