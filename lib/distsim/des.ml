open Relalg

type link = {
  latency : float;
  bandwidth : float;
}

type model = {
  link : Server.t -> Server.t -> link;
  per_tuple : float;
}

let uniform ?(latency = 1e-3) ?(bandwidth = 10e6) ?(per_tuple = 1e-6) () =
  { link = (fun _ _ -> { latency; bandwidth }); per_tuple }

let wire model (m : Network.message) =
  let l = model.link m.sender m.receiver in
  l.latency +. (float_of_int (Network.wire_bytes m) /. l.bandwidth)

type schedule = {
  finish : (int * float) list;
  makespan : float;
}

type task = {
  id : string;
  resource : string;
  duration : float;
  deps : string list;
  release : float;
}

type scheduled = {
  task : task;
  start : float;
  finish : float;
}

type run = {
  schedule : scheduled list;
  makespan : float;
  utilization : (string * float) list;
}

type graph_error =
  | Duplicate_task of string
  | Unknown_dependency of { task : string; dep : string }
  | Dependency_cycle of string list

exception Invalid_graph of graph_error

let pp_graph_error ppf = function
  | Duplicate_task id -> Fmt.pf ppf "duplicate task %S" id
  | Unknown_dependency { task; dep } ->
    Fmt.pf ppf "%S depends on unknown task %S" task dep
  | Dependency_cycle ids ->
    Fmt.pf ppf "dependency cycle among %a"
      Fmt.(list ~sep:(any ", ") (fmt "%S"))
      ids

let () =
  Printexc.register_printer (function
    | Invalid_graph e -> Some (Fmt.str "Des.Invalid_graph: %a" pp_graph_error e)
    | _ -> None)

let validate tasks =
  let exception E of graph_error in
  try
    let by_id = Hashtbl.create 64 in
    List.iter
      (fun t ->
        if Hashtbl.mem by_id t.id then raise (E (Duplicate_task t.id));
        Hashtbl.replace by_id t.id t)
      tasks;
    List.iter
      (fun t ->
        List.iter
          (fun d ->
            if not (Hashtbl.mem by_id d) then
              raise (E (Unknown_dependency { task = t.id; dep = d })))
          t.deps)
      tasks;
    (* Kahn's algorithm: whatever cannot be peeled off lies on or
       downstream of a cycle. *)
    let resolved = Hashtbl.create 64 in
    let remaining = ref tasks in
    let progress = ref true in
    while !progress do
      let runnable, blocked =
        List.partition
          (fun t -> List.for_all (Hashtbl.mem resolved) t.deps)
          !remaining
      in
      if runnable = [] then progress := false
      else begin
        List.iter (fun t -> Hashtbl.replace resolved t.id ()) runnable;
        remaining := blocked
      end
    done;
    if !remaining <> [] then
      raise
        (E
           (Dependency_cycle
              (List.sort String.compare
                 (List.map (fun t -> t.id) !remaining))));
    Ok ()
  with E e -> Error e

let cpu server = "cpu:" ^ Server.name server

let link ~src ~dst =
  Printf.sprintf "link:%s->%s" (Server.name src) (Server.name dst)

let simulate tasks =
  (match validate tasks with
   | Ok () -> ()
   | Error e -> raise (Invalid_graph e));
  let finish_of = Hashtbl.create 64 in
  let resource_free = Hashtbl.create 16 in
  let free resource =
    Option.value ~default:0.0 (Hashtbl.find_opt resource_free resource)
  in
  let schedule = ref [] in
  let remaining = ref tasks in
  let n = List.length tasks in
  for _ = 1 to n do
    (* Runnable tasks: all dependencies scheduled. *)
    let runnable =
      List.filter
        (fun t -> List.for_all (Hashtbl.mem finish_of) t.deps)
        !remaining
    in
    (* validate ruled out cycles, so some task is always runnable. *)
    assert (runnable <> []);
    let ready t =
      List.fold_left
        (fun acc d -> Float.max acc (Hashtbl.find finish_of d))
        t.release t.deps
    in
    let feasible_start t = Float.max (ready t) (free t.resource) in
    (* Earliest feasible start; FIFO tie-break on ready time, then id. *)
    let best =
      List.fold_left
        (fun best t ->
          match best with
          | None -> Some t
          | Some b ->
            let c = Float.compare (feasible_start t) (feasible_start b) in
            let c =
              if c <> 0 then c else Float.compare (ready t) (ready b)
            in
            let c = if c <> 0 then c else String.compare t.id b.id in
            if c < 0 then Some t else best)
        None runnable
    in
    match best with
    | None -> assert false
    | Some t ->
      let start = feasible_start t in
      let finish = start +. t.duration in
      Hashtbl.replace finish_of t.id finish;
      Hashtbl.replace resource_free t.resource finish;
      schedule := { task = t; start; finish } :: !schedule;
      remaining := List.filter (fun t' -> t'.id <> t.id) !remaining
  done;
  let schedule =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> String.compare a.task.id b.task.id
        | c -> c)
      !schedule
  in
  let makespan =
    List.fold_left (fun acc s -> Float.max acc s.finish) 0.0 schedule
  in
  let busy = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt busy s.task.resource) in
      Hashtbl.replace busy s.task.resource (prev +. s.task.duration))
    schedule;
  let utilization =
    Hashtbl.fold
      (fun r b acc -> (r, if makespan > 0.0 then b /. makespan else 0.0) :: acc)
      busy []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { schedule; makespan; utilization }

(* ------------------------------------------------------------------ *)

(* The task completing node [id] of the query under [prefix]. *)
let done_task ~prefix id = Printf.sprintf "%s/n%d/done" prefix id

let tasks_of_execution ?(prefix = "q") ?(release = 0.0)
    ?(backoff = fun _ -> 0.0) model plan assignment
    (outcome : Engine.outcome) =
  let rows id =
    match List.assoc_opt id outcome.Engine.node_rows with
    | Some r -> float_of_int r
    | None ->
      invalid_arg
        (Printf.sprintf "Des.tasks_of_execution: no measurement for n%d" id)
  in
  let exec id = Planner.Assignment.find assignment id in
  let master id = (exec id).Planner.Assignment.master in
  let tname node kind = Printf.sprintf "%s/n%d/%s" prefix node kind in
  let compute ~node ~kind ~at ~work ~deps =
    {
      id = tname node kind;
      resource = cpu at;
      duration = model.per_tuple *. work;
      deps;
      release;
    }
  in
  (* A transfer expands into its whole attempt chain: every failed
     attempt of the same protocol step (same purpose/sender/receiver)
     becomes a link task named "<final>~aK", chained by dependency, the
     failed ones carrying [backoff] seconds of wait on top of their wire
     time. The delivered attempt keeps the plain name, so dependents
     need not know whether retries happened. *)
  let transfer ~node ~kind ~(msg : Network.message) ~deps =
    let chain =
      List.filter
        (fun (a : Network.message) ->
          a.Network.purpose = msg.purpose
          && Server.equal a.Network.sender msg.sender
          && Server.equal a.Network.receiver msg.receiver
          && a.Network.attempt <= msg.attempt)
        (Network.attempts_at_join outcome.Engine.network node)
    in
    let chain = if chain = [] then [ msg ] else chain in
    let final = tname node kind in
    let _, rev =
      List.fold_left
        (fun (prev, acc) (a : Network.message) ->
          let failed = a.Network.attempt < msg.attempt in
          let t =
            {
              id = (if failed then Printf.sprintf "%s~a%d" final a.attempt
                    else final);
              resource = link ~src:msg.sender ~dst:msg.receiver;
              duration =
                (wire model a
                +. if failed then backoff a.Network.attempt else 0.0);
              deps = (match prev with None -> deps | Some p -> [ p ]);
              release;
            }
          in
          (Some t.id, t :: acc))
        (None, []) chain
    in
    List.rev rev
  in
  let done_of = done_task ~prefix in
  let rec go (n : Plan.node) : task list =
    match n.op with
    | Plan.Leaf _ ->
      [
        compute ~node:n.id ~kind:"done" ~at:(master n.id) ~work:(rows n.id)
          ~deps:[];
      ]
    | Plan.Project (_, c) | Plan.Select (_, c) ->
      go c
      @ [
          compute ~node:n.id ~kind:"done" ~at:(master n.id)
            ~work:(rows c.Plan.id)
            ~deps:[ done_of c.Plan.id ];
        ]
    | Plan.Join (_, l, r) ->
      let lt = go l and rt = go r in
      let m = master n.id in
      let l_server = master l.Plan.id in
      let msgs = Network.at_join outcome.Engine.network n.id in
      let work_join =
        rows l.Plan.id +. rows r.Plan.id
      in
      let own =
        match msgs with
        | [] ->
          (* Local join. *)
          [
            compute ~node:n.id ~kind:"done" ~at:m ~work:work_join
              ~deps:[ done_of l.Plan.id; done_of r.Plan.id ];
          ]
        | [ ({ purpose = Network.Full_operand _; _ } as msg) ] ->
          let other_done =
            if Server.equal m l_server then done_of r.Plan.id
            else done_of l.Plan.id
          in
          let master_done =
            if Server.equal m l_server then done_of l.Plan.id
            else done_of r.Plan.id
          in
          transfer ~node:n.id ~kind:"ship" ~msg ~deps:[ other_done ]
          @ [
              compute ~node:n.id ~kind:"done" ~at:m ~work:work_join
                ~deps:[ master_done; tname n.id "ship" ];
            ]
        | [ ({ purpose = Network.Join_attributes _; _ } as fwd);
            ({ purpose = Network.Semijoin_result _; _ } as back) ] ->
          let master_child, slave_child =
            if Server.equal m l_server then (l.Plan.id, r.Plan.id)
            else (r.Plan.id, l.Plan.id)
          in
          let slave = back.Network.sender in
          [
            compute ~node:n.id ~kind:"project" ~at:m
              ~work:(rows master_child)
              ~deps:[ done_of master_child ];
          ]
          @ transfer ~node:n.id ~kind:"fwd" ~msg:fwd
              ~deps:[ tname n.id "project" ]
          @ [
              compute ~node:n.id ~kind:"slave-join" ~at:slave
                ~work:
                  (rows slave_child
                  +. float_of_int (Relation.cardinality fwd.Network.data))
                ~deps:[ done_of slave_child; tname n.id "fwd" ];
            ]
          @ transfer ~node:n.id ~kind:"back" ~msg:back
              ~deps:[ tname n.id "slave-join" ]
          @ [
              compute ~node:n.id ~kind:"done" ~at:m
                ~work:
                  (rows master_child
                  +. float_of_int (Relation.cardinality back.Network.data))
                ~deps:[ done_of master_child; tname n.id "back" ];
            ]
        | [ ({ purpose = Network.Join_attributes _; _ } as k1);
            ({ purpose = Network.Join_attributes _; _ } as k2);
            ({ purpose = Network.Matched_keys _; _ } as matched);
            ({ purpose = Network.Semijoin_result _; _ } as reduced) ] ->
          let coordinator = matched.Network.sender in
          let other = reduced.Network.sender in
          let other_child =
            if Server.equal other l_server then l.Plan.id else r.Plan.id
          in
          let master_child =
            if Server.equal other l_server then r.Plan.id else l.Plan.id
          in
          let key_src (msg : Network.message) =
            if Server.equal msg.Network.sender m then done_of master_child
            else done_of other_child
          in
          transfer ~node:n.id ~kind:"keys1" ~msg:k1 ~deps:[ key_src k1 ]
          @ transfer ~node:n.id ~kind:"keys2" ~msg:k2 ~deps:[ key_src k2 ]
          @ [
              compute ~node:n.id ~kind:"match" ~at:coordinator
                ~work:
                  (float_of_int
                     (Relation.cardinality k1.Network.data
                     + Relation.cardinality k2.Network.data))
                ~deps:[ tname n.id "keys1"; tname n.id "keys2" ];
            ]
          @ transfer ~node:n.id ~kind:"matched" ~msg:matched
              ~deps:[ tname n.id "match" ]
          @ [
              compute ~node:n.id ~kind:"reduce" ~at:other
                ~work:
                  (rows other_child
                  +. float_of_int (Relation.cardinality matched.Network.data))
                ~deps:[ done_of other_child; tname n.id "matched" ];
            ]
          @ transfer ~node:n.id ~kind:"reduced" ~msg:reduced
              ~deps:[ tname n.id "reduce" ]
          @ [
              compute ~node:n.id ~kind:"done" ~at:m
                ~work:
                  (rows master_child
                  +. float_of_int (Relation.cardinality reduced.Network.data))
                ~deps:[ done_of master_child; tname n.id "reduced" ];
            ]
        | msgs
          when List.for_all
                 (fun (msg : Network.message) ->
                   match msg.purpose with
                   | Network.Proxy_operand _ -> true
                   | _ -> false)
                 msgs ->
          let ship_tasks =
            List.concat
              (List.mapi
                 (fun i (msg : Network.message) ->
                   let src_done =
                     if Server.equal msg.sender l_server then
                       done_of l.Plan.id
                     else done_of r.Plan.id
                   in
                   transfer ~node:n.id
                     ~kind:(Printf.sprintf "proxy%d" i)
                     ~msg ~deps:[ src_done ])
                 msgs)
          in
          ship_tasks
          @ [
              compute ~node:n.id ~kind:"done" ~at:m ~work:work_join
                ~deps:
                  (List.mapi
                     (fun i _ -> tname n.id (Printf.sprintf "proxy%d" i))
                     msgs);
            ]
        | _ ->
          invalid_arg
            (Printf.sprintf
               "Des.tasks_of_execution: unrecognised message pattern at n%d"
               n.id)
      in
      lt @ rt @ own
  in
  go (Plan.root plan)

let query_finish run ~prefix =
  let root_done = done_task ~prefix 0 in
  match
    List.find_opt (fun s -> s.task.id = root_done) run.schedule
  with
  | Some s -> Some s.finish
  | None -> None

let pp_run ppf r =
  let pp_task ppf s =
    Fmt.pf ppf "%-28s %-18s %10.6f .. %10.6f" s.task.id s.task.resource
      s.start s.finish
  in
  let pp_util ppf (resource, u) = Fmt.pf ppf "%-18s %5.1f%%" resource (u *. 100.0) in
  Fmt.pf ppf "@[<v>%a@,makespan: %.6f s@,utilization:@,%a@]"
    Fmt.(list ~sep:(any "@,") pp_task)
    r.schedule r.makespan
    Fmt.(list ~sep:(any "@,") pp_util)
    r.utilization

(* The analytic view: the same graph with nothing shared, so every task
   starts as soon as its dependencies finish. *)
let makespan ?backoff model plan assignment outcome =
  let prefix = "q" in
  let tasks =
    tasks_of_execution ~prefix ?backoff model plan assignment outcome
  in
  let run = simulate (List.map (fun t -> { t with resource = t.id }) tasks) in
  let finish_of = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace finish_of s.task.id s.finish)
    run.schedule;
  let finish id = Hashtbl.find finish_of (done_task ~prefix id) in
  {
    finish =
      List.sort compare
        (List.map
           (fun (n : Plan.node) -> (n.id, finish n.id))
           (Plan.nodes plan));
    makespan = finish (Plan.root plan).id;
  }

let pp_schedule ppf (s : schedule) =
  let pp_entry ppf (id, t) = Fmt.pf ppf "n%d: %.6f s" id t in
  Fmt.pf ppf "@[<v>%a@,makespan: %.6f s@]"
    Fmt.(list ~sep:(any "@,") pp_entry)
    s.finish s.makespan
