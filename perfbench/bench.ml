(* End-to-end benchmark of the federation service.

   One process serves one workload: a fixed, seeded sequence of
   [Federation.query], [Federation.revoke] and [Federation.grant] calls
   issued by a single client in a closed loop (each call returns before
   the next is sent; no extra domains). The sequence length is
   [ops_per_second * --seconds], never a wall-clock-bounded loop, so a
   seed and a run length fix every count the run reports.

   Run order: generate the inputs from the seed (untimed); set up the
   serving federations; set up several more from scratch (the median of
   all set-ups is [setup_s]), the first of them hosting the read
   workloads' policy rounds, all then dropped; [Gc.compact]; then the
   timed phase. With [--trace 1] the phase is served a second time with
   spans recorded around the public entry point of each layer, from
   outside the library, and the per-layer figures are printed instead.

   Every end-to-end time is scaled to a reference host speed (see
   [Speed]). Answer checks keep what they need at serve time and run
   after the phase, so they touch none of its figures. A failed check,
   or any operation that fails, aborts the run without printing a
   result. *)

open Relalg
module F = Federation
module Rng = Workload.Rng
module Sysgen = Workload.System_gen
module Auth = Authz.Authorization
module Cert = Analysis.Certificate

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* ------------------------------------------------------------------ *)
(* Clock, allocation and order statistics *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let kib_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1024.

(* Nearest-rank quantile of an ascending array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = quantile (sorted l) 0.5

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* A shared host can change speed by up to 1.5x for seconds at a time
   (another tenant on the sibling hardware thread), which moves every
   timing of a run together. So each timing is scaled to a
   reference speed: a fixed, allocation-free kernel of dependent loads
   and hash probes is timed next to the measured work, and a time [t]
   measured where the kernel takes [k] ns is reported as
   [t * reference_ns / k]. The kernel uses no code of the program, so
   the program getting faster still shows in full. *)
module Speed = struct
  let n = 1 lsl 14

  (* One cycle through all [n] slots (Sattolo's shuffle, fixed seed). *)
  let next =
    let a = Array.init n (fun i -> i) in
    let st = Random.State.make [| 7 |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int st i in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a

  let table =
    let t = Hashtbl.create 1024 in
    for i = 0 to 1023 do
      Hashtbl.replace t i (i * 3)
    done;
    t

  let kernel () =
    let j = ref 0 and acc = ref 0 in
    for _ = 1 to n / 4 do
      j := next.(!j);
      acc := !acc + Hashtbl.find table (!j land 1023)
    done;
    ignore (Sys.opaque_identity !acc)

  (* About the kernel's time on a 2-vCPU Intel Xeon virtual machine
     with its sibling thread idle, so that figures stay close to real
     time there. Only the ratio between runs matters. *)
  let reference_ns = 130_000.

  let kernel_ns () =
    let t0 = now_ns () in
    kernel ();
    float_of_int (now_ns () - t0)

  (* Median of [runs] (at most 5) kernel runs: an interrupt can stretch
     one. Insertion-sorted in place: [Array.sort] allocates an exception
     per sift, a count that would depend on the times sorted. *)
  let runs_ns = Array.make 5 0.

  let probe ?(runs = 5) () =
    for i = 0 to runs - 1 do
      let x = kernel_ns () in
      let j = ref i in
      while !j > 0 && runs_ns.(!j - 1) > x do
        runs_ns.(!j) <- runs_ns.(!j - 1);
        decr j
      done;
      runs_ns.(!j) <- x
    done;
    runs_ns.(runs / 2)

  (* Scale factor now, between short operations. *)
  let factor () = reference_ns /. probe ~runs:3 ()

  (* [f ()] and its time in reference-speed ns, scaled by the mean of
     the probes before and after it. *)
  let time f =
    let k0 = probe () in
    let t0 = now_ns () in
    let x = f () in
    let dt = now_ns () - t0 in
    let k1 = probe () in
    (x, float_of_int dt *. reference_ns /. ((k0 +. k1) /. 2.))
end

(* ------------------------------------------------------------------ *)
(* Workloads *)

type op =
  | Query of string
  | Revoke of Auth.t
  | Grant of Auth.t

(* One federation's inputs, as generated: the program sees nothing
   else. *)
type system = {
  catalog : Catalog.t;
  graph : Joinpath.Cond.t list;
  policy : Authz.Policy.t;
  instances : string -> Relation.t option;
  warm : string list;  (** served by every set-up: the cache warm-up *)
}

type inputs = {
  systems : system array;
  ops : (int * op) array;  (** the timed phase: (system, operation) *)
  rounds : (int * Auth.t) array;
      (** revoke + re-grant pairs of a read workload, timed one after
          another on one fresh set-up (revoke-churn times its rounds
          inside the phase) *)
  check_certs : bool;  (** re-prove every served certificate *)
}

type workload = {
  name : string;
  shape : string;
  ops_per_second : int;
  setups : int;
      (** fresh set-ups per run ([setup_s] is their median); the first
          serves the timed phase *)
  rounds : int;  (** a read workload's policy rounds *)
  make : seed:int -> ops:int -> rounds:int -> inputs;
}

let sql_of q = String.map (function '\n' -> ' ' | c -> c) (Query.to_string q)

(* Relation Ri holds keys 0 .. rows-1 in Ri_k, payload uniform in
   [0, 1000) and, in each link column Ri_to_Rj, a seeded permutation of
   Rj's keys: every row joins exactly one partner, so result sizes, and
   the bytes a plan ships, follow from the query and not the seed. *)
let instances rng ~rows (sys : Sysgen.t) =
  let is_link a =
    let n = Attribute.name a in
    let rec at i = i + 4 <= String.length n && (String.sub n i 4 = "_to_" || at (i + 1)) in
    at 0
  in
  let table = Hashtbl.create 32 in
  List.iter
    (fun schema ->
      let column a =
        if List.exists (Attribute.equal a) (Schema.key schema) then
          Array.init rows (fun i -> i)
        else if is_link a then
          Array.of_list (Rng.shuffle rng (List.init rows (fun i -> i)))
        else Array.init rows (fun _ -> Rng.int rng 1000)
      in
      let columns = List.map column (Schema.attributes schema) in
      Hashtbl.replace table (Schema.name schema)
        (Relation.of_rows schema
           (List.init rows (fun i ->
                List.map (fun c -> Value.Int c.(i)) columns))))
    (Catalog.schemas sys.catalog);
  Hashtbl.find_opt table

let generate rng ~relations ~rows ~density ~max_path =
  let sys =
    Sysgen.generate rng ~relations ~servers:relations ~extra:2
      ~topology:Sysgen.Chain
  in
  let policy =
    Workload.Authz_gen.generate rng ~max_path ~attr_keep:1.0 ~density sys
  in
  (sys, policy, instances rng ~rows sys)

let system (sys : Sysgen.t) policy instances warm =
  { catalog = sys.catalog; graph = sys.join_graph; policy; instances; warm }

(* [size] queries selecting every attribute they join, with [joins]
   joins and pairwise distinct canonical keys, kept when [ok] accepts
   them. Selecting everything keeps query shapes, and so costs, alike
   across seeds. *)
let pool ?(ok = fun _ -> true) rng sys ~joins ~size =
  let seen = Hashtbl.create 64 in
  let rec go acc k tries =
    if k = size then List.rev acc
    else if tries > 200 * size then failwith "degenerate query pool"
    else
      match
        Workload.Query_gen.generate rng ~select_keep:1.0 ~where_prob:0.0 ~joins
          sys
      with
      | Some q when (not (Hashtbl.mem seen (Query.canonical q))) && ok q ->
        Hashtbl.add seen (Query.canonical q) ();
        go (q :: acc) (k + 1) (tries + 1)
      | Some _ | None -> go acc k (tries + 1)
  in
  go [] 0 0

let le attr bound =
  Predicate.Cmp (attr, Predicate.Le, Predicate.Const (Value.Int bound))

let where_le catalog (q : Query.t) attr bound =
  match
    Query.make catalog ~select:q.select ~base:(Schema.name q.base)
      ~joins:(List.map (fun (s, c) -> (Schema.name s, c)) q.joins)
      ~where:(le attr bound)
  with
  | Ok q -> q
  | Error e -> failwith (Fmt.str "where_le: %a" Query.pp_error e)

(* Base rules that grant a join path (not a server's own relation):
   revoking one never leaves a server unable to read what it stores. *)
let path_rules policy =
  List.filter
    (fun (a : Auth.t) -> not (Joinpath.is_empty a.path))
    (Authz.Policy.authorizations policy)

let pick rng rules n = Array.init n (fun _ -> (0, Rng.choose rng rules))

(* The read workloads share one system: an 18-relation chain whose
   dense policy closes to every interval of the chain. *)
let hot_system rng = generate rng ~relations:18 ~rows:3 ~density:1.0 ~max_path:3

let zipf_hot ~seed ~ops ~rounds =
  let rng = Rng.make ~seed in
  let sys, policy, instances = hot_system rng in
  let pool = Array.of_list (List.map sql_of (pool rng sys ~joins:5 ~size:64)) in
  {
    systems = [| system sys policy instances (Array.to_list pool) |];
    ops =
      Array.init ops (fun _ ->
          (0, Query pool.(Rng.zipf rng ~s:1.1 ~n:(Array.length pool))));
    rounds = pick rng (path_rules policy) rounds;
    check_certs = false;
  }

let plan_miss ~seed ~ops ~rounds =
  let rng = Rng.make ~seed in
  let sys, policy, instances = hot_system rng in
  (* A fresh random 5-join walk, so the mix of query shapes does not
     depend on a seeded pool, with a random bound far above the payload
     domain [0, 1000) on a random payload attribute: every key is
     distinct, every row survives, and execution stays tiny. *)
  let rec walk () =
    match
      Workload.Query_gen.generate rng ~select_keep:1.0 ~where_prob:0.0
        ~joins:5 sys
    with
    | Some q -> q
    | None -> walk ()
  in
  let distinct offset i =
    let q = walk () in
    (* payload columns are named Ri_a0, Ri_a1, ... *)
    let payload =
      List.filter
        (fun a ->
          let n = Attribute.name a in
          match String.index_opt n '_' with
          | Some i -> i + 1 < String.length n && n.[i + 1] = 'a'
          | None -> false)
        q.select
    in
    sql_of
      (where_le sys.catalog q (Rng.choose rng payload)
         (offset + (1000 * i) + Rng.int rng 1000))
  in
  {
    (* the timed phase fills the 256-entry plan cache, then evicts on
       every miss *)
    systems = [| system sys policy instances (List.init 16 (distinct 1_000_000)) |];
    ops = Array.init ops (fun i -> (0, Query (distinct 1_000_000_000 i)));
    rounds = pick rng (path_rules policy) rounds;
    check_certs = false;
  }

(* R[lo] join ... join R[hi], left-deep from R[lo], selecting one
   payload column per relation, with a 10% selection on R[sel]. *)
let chain_query (sys : Sysgen.t) ~lo ~hi ~sel =
  let r i = Printf.sprintf "R%d" i in
  let attr i name = Sysgen.attr sys (Printf.sprintf "R%d_%s" i name) in
  let cond i =
    let _, _, c = List.find (fun (a, b, _) -> a = r i && b = r (i + 1)) sys.edges in
    c
  in
  match
    Query.make sys.catalog
      ~select:(List.init (hi - lo + 1) (fun k -> attr (lo + k) "a1"))
      ~base:(r lo)
      ~joins:(List.init (hi - lo) (fun k -> (r (lo + k + 1), cond (lo + k))))
      ~where:(le (attr sel "a0") 99)
  with
  | Ok q -> sql_of q
  | Error e -> failwith (Fmt.str "chain_query: %a" Query.pp_error e)

let scan_large ~seed ~ops ~rounds =
  let rng = Rng.make ~seed in
  let sys, policy, instances =
    generate rng ~relations:4 ~rows:10_000 ~density:1.0 ~max_path:3
  in
  (* Fixed query shapes, each served equally often in a seeded order:
     the seed moves the data and the order, not the mix. *)
  let pool =
    [|
      chain_query sys ~lo:0 ~hi:2 ~sel:0;
      chain_query sys ~lo:0 ~hi:2 ~sel:2;
      chain_query sys ~lo:1 ~hi:3 ~sel:1;
      chain_query sys ~lo:1 ~hi:3 ~sel:3;
      chain_query sys ~lo:0 ~hi:3 ~sel:0;
    |]
  in
  let k = Array.length pool in
  let order =
    Array.concat
      (List.init ((ops + k - 1) / k) (fun _ ->
           Array.of_list (Rng.shuffle rng (Array.to_list pool))))
  in
  {
    systems = [| system sys policy instances (Array.to_list pool) |];
    ops = Array.init ops (fun i -> (0, Query order.(i)));
    rounds = pick rng (path_rules policy) rounds;
    check_certs = false;
  }

let churn_systems = 32
let churn_pool = 8

(* One revoke-churn federation: its pool (feasible queries only) and
   the path rules whose revocation keeps every pool query feasible, so
   no operation of the run fails by design. A sparse policy can leave
   too few feasible queries or no such rule; the seed's next system
   then takes its place. *)
let rec churn_system rng =
  let sys, policy, instances =
    generate rng ~relations:6 ~rows:3 ~density:0.8 ~max_path:2
  in
  let scratch () =
    F.create ~catalog:sys.catalog ~policy ~close_under:sys.join_graph
      ~instances ()
  in
  let feasible fed sql = Result.is_ok (F.query fed sql) in
  let probe = scratch () in
  match
    pool rng sys ~joins:2 ~size:churn_pool ~ok:(fun q ->
        feasible probe (sql_of q))
  with
  | exception Failure _ -> churn_system rng
  | queries -> (
    let pool = List.map sql_of queries in
    let revocable =
      List.filter
        (fun a ->
          let fed = scratch () in
          List.iter (fun sql -> ignore (F.query fed sql)) pool;
          F.revoke fed a;
          List.for_all (feasible fed) pool)
        (List.filteri (fun i _ -> i < 24) (Rng.shuffle rng (path_rules policy)))
    in
    match revocable with
    | [] -> churn_system rng
    | _ -> (system sys policy instances pool, revocable))

let revoke_churn ~seed ~ops ~rounds:_ =
  let rng = Rng.make ~seed in
  (* Several independent federations served in turn: one seeded
     policy decides most plan shapes, so a run averages over a few. *)
  let feds = Array.init churn_systems (fun _ -> churn_system rng) in
  let cycle = (2 * churn_pool) + 2 in
  let ops =
    Array.concat
      (List.init (max 1 (ops / cycle)) (fun c ->
           let k = c mod churn_systems in
           let sys, revocable = feds.(k) in
           let a = Rng.choose rng revocable in
           let serve = List.map (fun sql -> (k, Query sql)) sys.warm in
           Array.of_list (((k, Revoke a) :: serve) @ ((k, Grant a) :: serve))))
  in
  { systems = Array.map fst feds; ops; rounds = [||]; check_certs = true }

let workloads =
  [
    {
      name = "zipf-hot";
      shape =
        "18-relation chain, 18 servers, 3 rows/relation, density-1.0 \
         max_path-3 policy; 64 distinct 5-join queries drawn Zipf(1.1)";
      ops_per_second = 2500;
      setups = 5;
      rounds = 12;
      make = zipf_hot;
    };
    {
      name = "plan-miss";
      shape =
        "zipf-hot's system and policy; every query a distinct canonical key \
         (random WHERE bound); the 256-entry cache fills, then evicts";
      ops_per_second = 75;
      setups = 5;
      rounds = 12;
      make = plan_miss;
    };
    {
      name = "scan-large";
      shape =
        "4-relation chain, 4 servers, 10^4 rows/relation, density-1.0 \
         max_path-3 policy; 5 queries (2-3 joins, 10% selection), each \
         served equally often";
      ops_per_second = 15;
      setups = 5;
      rounds = 10_000;
      make = scan_large;
    };
    {
      name = "revoke-churn";
      shape =
        "32 federations, each a 6-relation chain, 6 servers, 3 rows/relation, \
         density-0.8 max_path-2 policy, 8 2-join queries; cycles of revoke, \
         serve 8, re-grant, serve 8, federations in turn";
      ops_per_second = 10_000;
      setups = 11;
      rounds = 0;
      make = revoke_churn;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Spans: recorded by the benchmark around each layer's entry point *)

type span = {
  id : int;
  req : int;  (** request (operation) index *)
  layer : string;
  parent : int;  (** span id; -1 at a root *)
  start_ns : int;
  stop_ns : int;
  words : float;  (** words allocated inside the span *)
}

type tracer = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
}

let span tr ~req ~parent layer f =
  let id = tr.next in
  tr.next <- id + 1;
  let w0 = allocated_words () in
  let t0 = now_ns () in
  let x = f id in
  let t1 = now_ns () in
  let words = allocated_words () -. w0 in
  tr.spans <-
    { id; req; layer; parent; start_ns = t0; stop_ns = t1; words } :: tr.spans;
  x

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"req\":%d,\"layer\":%S,\"parent\":%d,\"start_ns\":%d,\
         \"end_ns\":%d,\"alloc_words\":%.0f}\n"
        s.id s.req s.layer s.parent s.start_ns s.stop_ns s.words)
    spans;
  close_out oc

(* Self time: a span's duration minus its children's (children of one
   span run one after another, so they never overlap). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop_ns - s.start_ns
          + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        float_of_int
          (s.stop_ns - s.start_ns
          - Option.value ~default:0 (Hashtbl.find_opt child s.id)) ))
    spans

(* ------------------------------------------------------------------ *)
(* Set-up, layer replays, timed phase, policy rounds *)

let fatal = function
  | F.Audit_violation m -> fail "audit violation: %s" m
  | F.Uncertified m -> fail "uncertified plan: %s" m
  | _ -> ()

let setup inp =
  Array.map
    (fun s ->
      let fed =
        F.create ~catalog:s.catalog ~policy:s.policy ~close_under:s.graph
          ~instances:s.instances ()
      in
      List.iter
        (fun sql ->
          match F.query fed sql with
          | Ok _ -> ()
          | Error e ->
            fail "warm-up query failed: %s" (Fmt.str "%a" F.pp_error e))
        s.warm;
      fed)
    inp.systems

type replay_ctx = {
  tr : tracer;
  handles : Authz.Chase.closed array;
      (** per federation, kept in step with its base policy *)
  health : Distsim.Health.t;
}

let fresh_ctx tr inp =
  let handle s =
    let h = Authz.Chase.closed_policy ~joins:s.graph s.policy in
    ignore (Authz.Chase.closure h);
    h
  in
  { tr; handles = Array.map handle inp.systems; health = Distsim.Health.create () }

(* The layers [Federation.query] runs for a response: a cache hit skips
   parse, planning and certification. *)
let hit_path = [ "engine.execute"; "audit.run"; "health.observe" ]

let miss_path =
  [
    "sql_parser.parse";
    "query.canonical";
    "third_party.plan";
    "safe_planner.plan";
    "certificate.emit";
    "certificate.check";
  ]
  @ hit_path

(* Replays one served request layer by layer on its own inputs (SQL,
   plan, assignment), each call under its own span. The layers on the
   request's path run first and in path order, as inside
   [Federation.query]; the layers it skipped and the batch executor
   follow. Returns the engine's summed node rows. *)
let replay ctx (s : system) k fed ~req ~parent sql (r : F.response) =
  let sp layer f = span ctx.tr ~req ~parent layer (fun _ -> f ()) in
  let handle = ctx.handles.(k) in
  let serving = F.serving_policy fed in
  let third_party = r.rescues <> [] in
  let front () =
    let q =
      match sp "sql_parser.parse" (fun () -> Sql_parser.parse s.catalog sql) with
      | Ok q -> q
      | Error _ -> fail "replay: a served query does not parse"
    in
    ignore (sp "query.canonical" (fun () -> Query.canonical q));
    let plan = Query.to_plan q in
    ignore
      (sp "third_party.plan" (fun () ->
           Planner.Third_party.plan ~excluded:(F.quarantined_servers fed)
             ~helpers:[] ~closed:handle s.catalog serving plan));
    ignore
      (sp "safe_planner.plan" (fun () ->
           Planner.Safe_planner.plan ~helpers:[] ~closed:handle s.catalog
             serving plan));
    let cert =
      match
        sp "certificate.emit" (fun () ->
            Cert.emit_plan ~third_party ~closed:handle s.catalog serving r.plan
              r.assignment)
      with
      | Ok c -> c
      | Error m -> fail "replay: certificate emit failed: %s" m
    in
    match
      sp "certificate.check" (fun () ->
          Cert.check_plan ~joins:s.graph s.catalog (F.base_policy fed) r.plan
            cert)
    with
    | [] -> ()
    | _ :: _ -> fail "replay: certificate check failed"
  in
  let exec executor =
    match
      Distsim.Engine.execute ~third_party ?executor s.catalog
        ~instances:s.instances r.plan r.assignment
    with
    | Ok o -> o
    | Error e -> fail "replay: %s" (Fmt.str "%a" Distsim.Engine.pp_error e)
  in
  let back () =
    let o = sp "engine.execute" (fun () -> exec None) in
    (match sp "audit.run" (fun () -> Distsim.Audit.run serving o.network) with
     | Ok _ -> ()
     | Error _ -> fail "replay: audit not clean");
    sp "health.observe" (fun () ->
        Distsim.Health.observe_log ctx.health ~now:req o.network);
    List.fold_left (fun acc (_, rows) -> acc + rows) 0 o.node_rows
  in
  let rows =
    if r.from_cache then begin
      let rows = back () in
      front ();
      rows
    end
    else begin
      front ();
      back ()
    end
  in
  ignore
    (sp "engine.execute_batch" (fun () ->
         exec (Some (module Batch.Exec : Exec.S))));
  rows

(* One revoke or grant, timed. Traced, it runs under a span, and the
   replay handle follows it under a chase span of its own, through
   [outside] so that the replay is not part of any figure. *)
let policy_op ?ctx ~outside feds i (k, op) =
  let fed = feds.(k) in
  let layer, chase_layer, apply, chase =
    match op with
    | Revoke a ->
      ( "federation.revoke",
        "chase.closure",
        (fun () -> F.revoke fed a),
        Authz.Chase.revoke a )
    | Grant a ->
      ( "federation.grant",
        "chase.add",
        (fun () -> F.grant fed a),
        Authz.Chase.add a )
    | Query _ -> invalid_arg "policy_op"
  in
  match ctx with
  | None ->
    let t0 = now_ns () in
    apply ();
    now_ns () - t0
  | Some c ->
    let dt =
      span c.tr ~req:i ~parent:(-1) "request" (fun root ->
          let t0 = now_ns () in
          span c.tr ~req:i ~parent:root layer (fun _ -> apply ());
          now_ns () - t0)
    in
    outside (fun () ->
        c.handles.(k) <-
          span c.tr ~req:i ~parent:(-1) chase_layer (fun _ ->
              let h = chase c.handles.(k) in
              ignore (Authz.Chase.closure h);
              h));
    dt

(* Policy rounds of a read workload, one after another on a fresh
   set-up, with a compacted heap. [base] offsets the request ids. The
   rounds run in at most 500 batches, each scaled by the mean of the
   speed probes before and after it: one round on the long ones, many
   on the short ones. *)
let policy_rounds ?ctx ~base rounds feds =
  Gc.compact ();
  let outside f = f () in
  let n = Array.length rounds in
  let batch = max 1 (n / 500) in
  let ms = Array.make n 0. in
  let k0 = ref (Speed.probe ()) in
  for b = 0 to (n - 1) / batch do
    let lo = b * batch and hi = min n ((b + 1) * batch) in
    for j = lo to hi - 1 do
      let k, a = rounds.(j) in
      let i = base + (2 * j) in
      let r = policy_op ?ctx ~outside feds i (k, Revoke a) in
      let g = policy_op ?ctx ~outside feds (i + 1) (k, Grant a) in
      ms.(j) <- float_of_int (r + g) /. 1e6
    done;
    let k1 = Speed.probe () in
    let scale = Speed.reference_ns /. ((!k0 +. k1) /. 2.) in
    for j = lo to hi - 1 do
      ms.(j) <- ms.(j) *. scale
    done;
    k0 := k1
  done;
  Array.to_list ms

type phase = {
  lat : float array;
      (** served query latencies (us at reference speed), ascending *)
  wall_ns : float;  (** at reference speed *)
  raw_wall_ns : int;
  raw_p50_us : float;
  speed : float array;  (** every scale factor applied, ascending *)
  served : int;
  bytes : int;
  messages : int;
  alloc_words : float;
  rounds_ms : float list;  (** revoke + re-grant, one sample per round *)
  live_words : int;  (** after [Gc.full_major] at the end of the phase *)
  stats : (F.stats -> int) -> int;
      (** a counter's growth over the phase, summed over federations *)
  samples : (int * bool * int) list;
      (** traced: (request, served from cache, summed engine rows) *)
}

(* Serves [inp.ops], recording each query's latency into [lat] and
   [raw] (one slot per operation, allocated by the caller before its
   heap baseline): scaled to reference speed, and as measured. The ops
   run in 500 batches of equal count (a fixed number, so that the
   probes' allocation repeats exactly), each scaled by a speed probe
   taken just before it: the host's speed holds for far longer than a
   batch. Any failed operation aborts the run. *)
let run_phase ?ctx ~lat ~raw inp feds =
  let served = ref 0 in
  let bytes = ref 0 and messages = ref 0 in
  let rounds = ref [] and revoke_ns = ref 0. in
  let samples = ref [] in
  (* The answer checks run after the phase, so that they touch none of
     its figures; each keeps only what it needs from serve time. *)
  let checks = ref [] in
  let check f = checks := f :: !checks in
  (* What the traced replays cost is taken back out of the figures. *)
  let excluded_ns = ref 0 and excluded_words = ref 0. in
  let outside f =
    let w0 = allocated_words () in
    let t0 = now_ns () in
    f ();
    excluded_ns := !excluded_ns + (now_ns () - t0);
    excluded_words := !excluded_words +. (allocated_words () -. w0)
  in
  let queries =
    Array.fold_left (fun c -> function _, Query _ -> c + 1 | _ -> c) 0 inp.ops
  in
  let check_stride = max 1 (queries / 40) in
  let replay_stride = max 3 (queries / 150) in
  (* The current batch: its scale factor, its start and the time
     excluded before it; [scaled_ns] sums the closed batches. *)
  let batch = max 1 (Array.length inp.ops / 500) in
  let factor = ref 1. and factors = ref [] and scaled_ns = ref 0. in
  let mark = ref 0 and mark_excluded = ref 0 in
  let boundary ~first =
    let t0 = now_ns () in
    if not first then begin
      let dt = t0 - !mark - (!excluded_ns - !mark_excluded) in
      scaled_ns := !scaled_ns +. (float_of_int dt *. !factor)
    end;
    factor := Speed.factor ();
    factors := !factor :: !factors;
    let t1 = now_ns () in
    excluded_ns := !excluded_ns + (t1 - t0);
    mark_excluded := !excluded_ns;
    mark := t1
  in
  let record t0 =
    let dt = float_of_int (now_ns () - t0) /. 1e3 in
    raw.(!served) <- dt;
    lat.(!served) <- dt *. !factor
  in
  let serve i k sql =
    let fed = feds.(k) and s = inp.systems.(k) in
    let r =
      match ctx with
      | None ->
        let t0 = now_ns () in
        let r = F.query fed sql in
        record t0;
        r
      | Some c ->
        span c.tr ~req:i ~parent:(-1) "request" (fun root ->
            let t0 = now_ns () in
            let r =
              span c.tr ~req:i ~parent:root "federation.query" (fun _ ->
                  F.query fed sql)
            in
            record t0;
            (match r with
             | Ok resp when !served mod replay_stride = 0 ->
               outside (fun () ->
                   let rows =
                     span c.tr ~req:i ~parent:root "replay" (fun parent ->
                         replay c s k fed ~req:i ~parent sql resp)
                   in
                   samples := (i, resp.from_cache, rows) :: !samples)
             | _ -> ());
            r)
    in
    match r with
    | Error e ->
      fatal e;
      fail "query %d failed: %s" i (Fmt.str "%a" F.pp_error e)
    | Ok resp ->
      bytes := !bytes + resp.bytes;
      messages := !messages + resp.messages;
      let plan = resp.plan in
      if !served mod check_stride = 0 then begin
        let result = resp.result in
        check (fun () ->
            let expected = Distsim.Engine.centralized ~instances:s.instances plan in
            if not (Relation.equal result expected) then
              fail "query %d: result differs from the centralized answer" i)
      end;
      if inp.check_certs then begin
        let cert = resp.certificate and base = F.base_policy fed in
        check (fun () ->
            match cert with
            | None -> fail "query %d: served without a certificate" i
            | Some cert -> (
              match
                Cert.check_plan ~revalidate:true ~joins:s.graph s.catalog base
                  plan cert
              with
              | [] -> ()
              | _ :: _ ->
                fail "query %d: stale execution (certificate no longer proves)"
                  i))
      end;
      incr served
  in
  let policy i (k, op) =
    float_of_int (policy_op ?ctx ~outside feds i (k, op)) *. !factor
  in
  let step i (k, op) =
    if i > 0 && i mod batch = 0 then boundary ~first:false;
    match op with
    | Query sql -> serve i k sql
    | Revoke _ -> revoke_ns := policy i (k, op)
    | Grant _ ->
      let dt = policy i (k, op) in
      rounds := ((!revoke_ns +. dt) /. 1e6) :: !rounds
  in
  let before = Array.map F.stats feds in
  let w0 = allocated_words () in
  let t0 = now_ns () in
  boundary ~first:true;
  Array.iteri step inp.ops;
  boundary ~first:false;
  let raw_wall_ns = now_ns () - t0 - !excluded_ns in
  let alloc_words = allocated_words () -. w0 -. !excluded_words in
  let after = Array.map F.stats feds in
  List.iter (fun f -> f ()) (List.rev !checks);
  checks := [];
  Gc.full_major ();
  let live_words = (Gc.stat ()).live_words in
  (* the federations must still be reachable when the heap is read *)
  ignore (Sys.opaque_identity feds);
  let lat = Array.sub lat 0 !served in
  Array.sort Float.compare lat;
  let raw = Array.sub raw 0 !served in
  Array.sort Float.compare raw;
  {
    lat;
    wall_ns = !scaled_ns;
    raw_wall_ns;
    raw_p50_us = quantile raw 0.5;
    speed = sorted !factors;
    served = !served;
    bytes = !bytes;
    messages = !messages;
    alloc_words;
    rounds_ms = !rounds;
    live_words;
    stats =
      (fun f ->
        let sum a = Array.fold_left (fun acc s -> acc + f s) 0 a in
        sum after - sum before);
    samples = !samples;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let json_number name v =
  if not (Float.is_finite v) then fail "metric %s is not a finite number" name
  else Printf.sprintf "%.17g" v

(* Every operation that failed has aborted the run already. *)
let emit ~attempted metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %16.6f %s\n" name v unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number name v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n"
    attempted body

let waiting = "waiting time: none (one synchronous client, no layer queues work)"
let mib_of_words w = kib_of_words (float_of_int w) /. 1024.

let end_to_end w inp =
  (* The latency buffer and the inputs are in the heap baseline, so
     [live_heap_mb] counts only what the federations hold. *)
  let lat = Array.make (Array.length inp.ops) 0. in
  let raw = Array.make (Array.length inp.ops) 0. in
  Gc.compact ();
  let base_words = (Gc.stat ()).live_words in
  let times = ref [] in
  let timed_setup () =
    Gc.compact ();
    let feds, dt = Speed.time (fun () -> setup inp) in
    times := (dt /. 1e9) :: !times;
    feds
  in
  let feds = timed_setup () in
  (* The later set-ups are dropped; the first hosts the read workloads'
     policy rounds. All run before the phase: its audit log would
     otherwise swell the heap their allocations are charged against. *)
  let rounds = ref [] in
  for j = 1 to w.setups - 1 do
    let fresh = timed_setup () in
    if j = 1 then rounds := policy_rounds ~base:0 inp.rounds fresh
  done;
  Gc.compact ();
  let p = run_phase ~lat ~raw inp feds in
  if p.served < 100 then
    fail "only %d served queries: p90 needs 10 samples beyond it" p.served;
  let queries = float_of_int p.served in
  let ops = float_of_int (Array.length inp.ops) in
  let rounds_ms = p.rounds_ms @ !rounds in
  let r = sorted rounds_ms in
  Printf.printf "%s: %s\n" w.name w.shape;
  Printf.printf
    "  %d timed operations, %d served queries (the latency samples), error \
     rate 0 (a failed operation aborts the run)\n"
    (Array.length inp.ops) p.served;
  Printf.printf "  %d policy rounds: min %.4f, median %.4f, max %.4f ms\n"
    (Array.length r) r.(0) (quantile r 0.5) r.(Array.length r - 1);
  Printf.printf "  latency deciles (us):%s\n"
    (String.concat ""
       (List.init 10 (fun d ->
            Printf.sprintf " %.1f" (quantile p.lat (float_of_int (d + 1) /. 10.)))));
  Printf.printf "  set-ups %s s (median of %d)\n  %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times))
    w.setups waiting;
  Printf.printf
    "  host speed: %d probes, scale factor min %.3f, median %.3f, max %.3f; \
     as measured, query p50 %.3f us and %.1f queries/s\n"
    (Array.length p.speed) p.speed.(0) (quantile p.speed 0.5)
    p.speed.(Array.length p.speed - 1)
    p.raw_p50_us
    (queries /. (float_of_int p.raw_wall_ns /. 1e9));
  Printf.printf
    "counts {\"bytes_per_query\": %.17g, \"messages_per_query\": %.17g, \
     \"alloc_kb_per_query\": %.17g, \"cache_hits\": %d, \"evictions\": %d, \
     \"invalidations\": %d, \"served\": %d}\n"
    (float_of_int p.bytes /. queries)
    (float_of_int p.messages /. queries)
    (kib_of_words p.alloc_words /. ops)
    (p.stats (fun s -> s.F.cache_hits))
    (p.stats (fun s -> s.F.evictions))
    (p.stats (fun s -> s.F.invalidations))
    p.served;
  emit
    ~attempted:(Array.length inp.ops + (2 * Array.length inp.rounds))
    [
      ("query_p50_us", quantile p.lat 0.5, "us");
      ("query_p90_us", quantile p.lat 0.9, "us");
      ("throughput_qps", queries /. (p.wall_ns /. 1e9), "1/s");
      ("policy_round_p50_ms", median rounds_ms, "ms");
      ("bytes_per_query", float_of_int p.bytes /. queries, "B");
      ("messages_per_query", float_of_int p.messages /. queries, "1");
      ("setup_s", median !times, "s");
      ("live_heap_mb", mib_of_words (p.live_words - base_words), "MiB");
      ("alloc_kb_per_query", kib_of_words p.alloc_words /. ops, "KiB");
    ]

let per_layer w inp =
  (* Untraced reference phase on a fresh set-up, for the overhead ratio. *)
  let lat = Array.make (Array.length inp.ops) 0. in
  let raw = Array.make (Array.length inp.ops) 0. in
  let untraced =
    let feds = setup inp in
    Gc.compact ();
    run_phase ~lat ~raw inp feds
  in
  let tr = { spans = []; next = 0 } in
  let rules =
    let ctx = fresh_ctx tr inp in
    Array.fold_left
      (fun acc h -> acc + Authz.Policy.cardinality (Authz.Chase.closure h))
      0 ctx.handles
    / Array.length ctx.handles
  in
  (* A few of the read workloads' rounds: each also replays the chase. *)
  let rounds = Array.sub inp.rounds 0 (min 5 (Array.length inp.rounds)) in
  ignore
    (policy_rounds ~ctx:(fresh_ctx tr inp) ~base:(Array.length inp.ops) rounds
       (setup inp));
  let feds = setup inp in
  let ctx = fresh_ctx tr inp in
  Gc.compact ();
  let p = run_phase ~ctx ~lat ~raw inp feds in
  let audit_entries =
    Array.fold_left (fun acc f -> acc + List.length (F.audit_log f)) 0 feds
  in
  let spans = List.rev tr.spans in
  let selfs = self_times spans in
  let by_layer layer =
    List.filter_map
      (fun (s, t) -> if s.layer = layer then Some (s, t) else None)
      selfs
  in
  let med scale layer =
    median (List.map (fun (_, t) -> t /. scale) (by_layer layer))
  in
  let med_kb layers =
    (* per request: the layers' words summed, then the median *)
    let per_req = Hashtbl.create 256 in
    List.iter
      (fun layer ->
        List.iter
          (fun (s, _) ->
            Hashtbl.replace per_req s.req
              (s.words
              +. Option.value ~default:0. (Hashtbl.find_opt per_req s.req)))
          (by_layer layer))
      layers;
    median (Hashtbl.fold (fun _ w acc -> kib_of_words w :: acc) per_req [])
  in
  (* Per replayed request: its [Federation.query] time and the self
     time of every layer on its path; the rest is unattributed. *)
  let layer_time = Hashtbl.create 1024 in
  List.iter (fun (s, t) -> Hashtbl.replace layer_time (s.req, s.layer) t) selfs;
  let time req layer =
    Option.value ~default:0. (Hashtbl.find_opt layer_time (req, layer))
  in
  let breakdown =
    List.map
      (fun (req, hit, _) ->
        let parts =
          List.map (fun l -> (l, time req l)) (if hit then hit_path else miss_path)
        in
        let attributed = List.fold_left (fun a (_, t) -> a +. t) 0. parts in
        ("federation.unattributed", time req "federation.query" -. attributed)
        :: parts)
      p.samples
  in
  let on_path layer =
    median
      (List.map
         (fun parts ->
           Option.value ~default:0. (List.assoc_opt layer parts) /. 1e3)
         breakdown)
  in
  let traced_p50 = med 1e3 "federation.query" in
  let count f = float_of_int (p.stats f) in
  let metrics =
    [
      ( "federation.cache_hit_ratio",
        count (fun s -> s.F.cache_hits) /. float_of_int p.served,
        "ratio" );
      ("federation.evictions", count (fun s -> s.F.evictions), "count");
      ("federation.invalidations", count (fun s -> s.F.invalidations), "count");
      ("federation.revoke_ms", med 1e6 "federation.revoke", "ms");
      ("federation.grant_ms", med 1e6 "federation.grant", "ms");
      ("federation.unattributed_us", on_path "federation.unattributed", "us");
      ("sql_parser.parse_us", med 1e3 "sql_parser.parse", "us");
      ("sql_parser.alloc_kb", med_kb [ "sql_parser.parse" ], "KiB");
      ("query.canonical_us", med 1e3 "query.canonical", "us");
      ("third_party.plan_us", med 1e3 "third_party.plan", "us");
      ("safe_planner.plan_us", med 1e3 "safe_planner.plan", "us");
      ( "planner.alloc_kb",
        med_kb [ "third_party.plan"; "safe_planner.plan" ],
        "KiB" );
      ("chase.closure_ms", med 1e6 "chase.closure", "ms");
      ("chase.add_ms", med 1e6 "chase.add", "ms");
      ("chase.rules", float_of_int rules, "count");
      ("certificate.emit_us", med 1e3 "certificate.emit", "us");
      ("certificate.check_us", med 1e3 "certificate.check", "us");
      ("engine.execute_us", med 1e3 "engine.execute", "us");
      ( "engine.rows",
        median (List.map (fun (_, _, r) -> float_of_int r) p.samples),
        "count" );
      ("engine.alloc_kb", med_kb [ "engine.execute" ], "KiB");
      ("engine.execute_batch_us", med 1e3 "engine.execute_batch", "us");
      ("audit.run_us", med 1e3 "audit.run", "us");
      ("audit.entries", float_of_int audit_entries, "count");
      ("audit.alloc_kb", med_kb [ "audit.run" ], "KiB");
      ("health.observe_us", med 1e3 "health.observe", "us");
      ( "trace.overhead_ratio",
        quantile p.lat 0.5 /. quantile untraced.lat 0.5,
        "ratio" );
    ]
  in
  Printf.printf "%s (traced): %s\n" w.name w.shape;
  Printf.printf
    "  %d spans over %d timed operations; %d served requests replayed layer \
     by layer\n\
    \  %s\n"
    (List.length spans) (Array.length inp.ops) (List.length p.samples) waiting;
  (* Each layer's share of its own request's [Federation.query] time,
     median over replayed requests: independent of the query mix. *)
  let share layer =
    median
      (List.map2
         (fun (req, _, _) parts ->
           Option.value ~default:0. (List.assoc_opt layer parts)
           /. time req "federation.query")
         p.samples breakdown)
  in
  let layers = "federation.unattributed" :: miss_path in
  Printf.printf
    "  per replayed query, on its path: median self time (us), median share\n";
  List.iter
    (fun l ->
      Printf.printf "    %-26s %12.3f %7.1f%%\n" l (on_path l) (100. *. share l))
    layers;
  let top, t =
    List.fold_left
      (fun (bl, bt) l -> if share l > bt then (l, share l) else (bl, bt))
      ("", neg_infinity) layers
  in
  Printf.printf
    "  dominant layer of query_p50_us: %s (median %.1f%% of a served query; \
     traced median %.3f us)\n"
    top (100. *. t) traced_p50;
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "perfbench/out/spans-%s.jsonl" w.name in
  write_spans path spans;
  Printf.printf "  spans written to %s\n" path;
  emit
    ~attempted:((2 * Array.length inp.ops) + (2 * Array.length rounds))
    metrics

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: zipf-hot plan-miss scan-large revoke-churn";
  exit 2

let () =
  let rec parse acc = function
    | flag :: v :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some v -> v | None -> usage ()
  in
  let name = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  try
    let inp =
      w.make ~seed ~ops:(w.ops_per_second * seconds) ~rounds:w.rounds
    in
    if trace = 0 then end_to_end w inp else per_layer w inp
  with Check_failed msg ->
    Printf.eprintf "%s: CHECK FAILED: %s\n" name msg;
    exit 1
