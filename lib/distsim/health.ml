open Relalg

let src = Logs.Src.create "cisqp.health" ~doc:"Per-server health tracking"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  failure_threshold : int;
  cooldown : int;
  window : int;
}

let default_config = { failure_threshold = 3; cooldown = 8; window = 16 }

let config ?(failure_threshold = default_config.failure_threshold)
    ?(cooldown = default_config.cooldown) ?(window = default_config.window) ()
    =
  if failure_threshold <= 0 then
    invalid_arg "Health.config: failure_threshold must be positive";
  if cooldown <= 0 then invalid_arg "Health.config: cooldown must be positive";
  if window <= 0 then invalid_arg "Health.config: window must be positive";
  { failure_threshold; cooldown; window }

type state =
  | Closed
  | Open of { until : int }
  | Half_open

type entry = {
  server : Server.t;
  mutable state : state;
  mutable consecutive : int;  (* consecutive failures *)
  mutable successes : int;
  mutable failures : int;
  recent : bool array;
      (* ring of the last [window] outcomes, true = success; unwritten
         slots read as successes *)
  mutable cursor : int;  (* the ring slot the next outcome overwrites *)
  mutable recent_failures : int;  (* [false] slots in [recent] *)
  mutable att_sum : int;  (* sum of delivery attempt numbers *)
  mutable att_cnt : int;
}

type t = {
  cfg : config;
  table : (string, entry) Hashtbl.t;
  mutable opens : int;
}

let create ?(config = default_config) () =
  { cfg = config; table = Hashtbl.create 16; opens = 0 }

let entry t server =
  let key = Server.name server in
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    let e =
      {
        server;
        state = Closed;
        consecutive = 0;
        successes = 0;
        failures = 0;
        recent = Array.make t.cfg.window true;
        cursor = 0;
        recent_failures = 0;
        att_sum = 0;
        att_cnt = 0;
      }
    in
    Hashtbl.add t.table key e;
    e

(* An open breaker lapses into Half_open lazily, the first time it is
   consulted at or past its cooldown expiry — there is no background
   clock, only the federation's request ticks. *)
let resolve t ~now e =
  (match e.state with
  | Open { until } when now >= until ->
    e.state <- Half_open;
    Log.debug (fun m ->
        m "tick %d: %a half-open (probing)" now Server.pp e.server)
  | _ -> ());
  ignore t

(* Overwrite the oldest outcome in place: a delivered message allocates
   nothing here. *)
let push e ok =
  let i = e.cursor in
  if not e.recent.(i) then e.recent_failures <- e.recent_failures - 1;
  e.recent.(i) <- ok;
  if not ok then e.recent_failures <- e.recent_failures + 1;
  e.cursor <- (if i + 1 = Array.length e.recent then 0 else i + 1)

let trip t ~now e =
  e.state <- Open { until = now + t.cfg.cooldown };
  t.opens <- t.opens + 1;
  Log.info (fun m ->
      m "tick %d: breaker OPEN for %a (until tick %d)" now Server.pp e.server
        (now + t.cfg.cooldown))

let fail t ~now e =
  resolve t ~now e;
  e.failures <- e.failures + 1;
  e.consecutive <- e.consecutive + 1;
  push e false;
  match e.state with
  | Closed -> if e.consecutive >= t.cfg.failure_threshold then trip t ~now e
  | Half_open -> trip t ~now e (* failed probe: straight back to Open *)
  | Open { until } ->
    (* already quarantined — extend the cooldown, not a fresh open *)
    e.state <- Open { until = max until (now + t.cfg.cooldown) }

let succeed t ~now e =
  resolve t ~now e;
  e.successes <- e.successes + 1;
  e.consecutive <- 0;
  push e true;
  match e.state with
  | Half_open ->
    e.state <- Closed;
    Log.info (fun m ->
        m "tick %d: breaker closed for %a (probe succeeded)" now Server.pp
          e.server)
  | Closed | Open _ -> ()

let record_failure t ~now server = fail t ~now (entry t server)
let record_success t ~now server = succeed t ~now (entry t server)

(* One table lookup per message. *)
let observe_log t ~now network =
  List.iter
    (fun (m : Network.message) ->
      let e = entry t m.receiver in
      match m.delivery with
      | Network.Delivered ->
        e.att_sum <- e.att_sum + m.attempt;
        e.att_cnt <- e.att_cnt + 1;
        succeed t ~now e
      | Network.Dropped | Network.Corrupted -> fail t ~now e)
    (Network.messages network)

let state t ~now server =
  match Hashtbl.find_opt t.table (Server.name server) with
  | None -> Closed
  | Some e ->
    resolve t ~now e;
    e.state

let quarantined t ~now =
  Hashtbl.fold
    (fun _ e acc ->
      resolve t ~now e;
      match e.state with Open _ -> e.server :: acc | Closed | Half_open -> acc)
    t.table []
  |> List.sort (fun a b -> compare (Server.name a) (Server.name b))

let breaker_opens t = t.opens

type snapshot = {
  subject : Server.t;
  condition : state;
  ok : int;
  failed : int;
  recent_failures : int;
  mean_attempts : float;
}

let snapshot_of e =
  {
    subject = e.server;
    condition = e.state;
    ok = e.successes;
    failed = e.failures;
    recent_failures = e.recent_failures;
    mean_attempts =
      (if e.att_cnt = 0 then 0.0
       else float_of_int e.att_sum /. float_of_int e.att_cnt);
  }

let by_server a b = compare (Server.name a.subject) (Server.name b.subject)

let report t ~now =
  Hashtbl.fold
    (fun _ e acc ->
      resolve t ~now e;
      snapshot_of e :: acc)
    t.table []
  |> List.sort by_server

let pp_state ppf = function
  | Closed -> Fmt.string ppf "closed"
  | Open { until } -> Fmt.pf ppf "open (until tick %d)" until
  | Half_open -> Fmt.string ppf "half-open"

let pp_snapshot ppf s =
  Fmt.pf ppf "%a: %a, %d ok / %d failed (%d recent), mean attempts %.2f"
    Server.pp s.subject pp_state s.condition s.ok s.failed s.recent_failures
    s.mean_attempts

(* Non-mutating: renders whatever state each breaker was last resolved
   to, without advancing the lazy Open -> Half_open transitions. *)
let pp ppf t =
  let snaps =
    Hashtbl.fold (fun _ e acc -> snapshot_of e :: acc) t.table []
    |> List.sort by_server
  in
  if snaps = [] then Fmt.string ppf "no servers observed"
  else Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_snapshot) snaps
