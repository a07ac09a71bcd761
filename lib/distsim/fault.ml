open Relalg

let src = Logs.Src.create "cisqp.fault" ~doc:"Fault injection"

module Log = (val Logs.src_log src : Logs.LOG)

type window = {
  from_step : int;
  until : int option;
}

type crash = {
  server : Server.t;
  window : window;
}

type link_profile = {
  drop : float;
  corrupt : float;
}

let perfect_link = { drop = 0.0; corrupt = 0.0 }

type plan = {
  seed : int;
  crashes : crash list;
  default_link : link_profile;
  links : ((string * string) * link_profile) list;
  max_retries : int;
  backoff_base : float;
  backoff_factor : float;
  backoff_ceiling : float;
}

let make ?(crashes = []) ?(default_link = perfect_link) ?(links = [])
    ?(max_retries = 5) ?(backoff_base = 1e-3) ?(backoff_factor = 2.0)
    ?(backoff_ceiling = 60.0) ~seed () =
  if backoff_ceiling <= 0.0 then
    invalid_arg "Fault.make: backoff_ceiling must be positive";
  { seed; crashes; default_link; links; max_retries; backoff_base;
    backoff_factor; backoff_ceiling }

let reliable = make ~seed:0 ()

let crash ?until server ~at = { server; window = { from_step = at; until } }

let backoff plan attempt =
  plan.backoff_base *. (plan.backoff_factor ** float_of_int (attempt - 1))

let random_plan rng ~servers =
  let open Workload in
  let crashes =
    let one () =
      let server = Rng.choose rng servers in
      let at = Rng.int rng 24 in
      let until =
        if Rng.flip rng 0.5 then None (* permanent *)
        else Some (at + 2 + Rng.int rng 8)
      in
      { server; window = { from_step = at; until } }
    in
    if servers = [] then []
    else
      let first = if Rng.flip rng 0.7 then [ one () ] else [] in
      if first <> [] && Rng.flip rng 0.25 then one () :: first else first
  in
  let default_link =
    {
      drop = Rng.choose rng [ 0.0; 0.05; 0.15; 0.3 ];
      corrupt = Rng.choose rng [ 0.0; 0.05; 0.1 ];
    }
  in
  make ~crashes ~default_link
    ~max_retries:(4 + Rng.int rng 4)
    ~seed:(Rng.int rng 1_000_000)
    ()

let pp_window ppf w =
  match w.until with
  | None -> Fmt.pf ppf "from step %d, permanent" w.from_step
  | Some u -> Fmt.pf ppf "steps [%d, %d)" w.from_step u

let pp_plan ppf p =
  Fmt.pf ppf
    "@[<v>seed %d; %d retries, backoff %g s x%g; link drop %.2f / corrupt \
     %.2f%a@]"
    p.seed p.max_retries p.backoff_base p.backoff_factor p.default_link.drop
    p.default_link.corrupt
    Fmt.(
      list ~sep:nop (fun ppf c ->
          Fmt.pf ppf "@,crash %a %a" Server.pp c.server pp_window c.window))
    p.crashes

(* ------------------------------------------------------------------ *)

type status =
  | Up
  | Transient
  | Permanent

type verdict =
  | Deliver
  | Drop
  | Corrupt

type event =
  | Attempted of {
      step : int;
      sender : Server.t;
      receiver : Server.t;
      attempt : int;
      verdict : verdict;
    }
  | Waited of { step : int; attempt : int; delay : float; clamped : bool }
  | Outage of { step : int; server : Server.t; node : int; permanent : bool }

type t = {
  plan : plan;
  rng : Workload.Rng.t option;
      (* [None] when no link can drop or corrupt: every roll would come
         out [Deliver], so there is no stream to keep aligned *)
  mutable step : int;
  mutable delay : float;
  mutable events : event list; (* reversed *)
}

let lossy l = l.drop > 0.0 || l.corrupt > 0.0

let start plan =
  let rng =
    if lossy plan.default_link || List.exists (fun (_, l) -> lossy l) plan.links
    then Some (Workload.Rng.make ~seed:plan.seed)
    else None
  in
  { plan; rng; step = 0; delay = 0.0; events = [] }

let plan_of t = t.plan
let steps t = t.step
let total_delay t = t.delay
let events t = List.rev t.events

let record t e = t.events <- e :: t.events

(* The worst applicable window wins: a permanent crash shadows any
   transient outage of the same server. A top-level loop, so a status
   probe allocates nothing. *)
let rec worst step server acc = function
  | [] -> acc
  | c :: rest ->
    if (not (Server.equal c.server server)) || step < c.window.from_step then
      worst step server acc rest
    else (
      match c.window.until with
      | None -> Permanent
      | Some u -> worst step server (if step < u then Transient else acc) rest)

let status t server = worst t.step server Up t.plan.crashes

let compute t ~server ~node =
  t.step <- t.step + 1;
  match status t server with
  | Up -> Up
  | (Transient | Permanent) as s ->
    record t
      (Outage { step = t.step; server; node; permanent = s = Permanent });
    Log.debug (fun m ->
        m "step %d: %a down (%s) at n%d" t.step Server.pp server
          (if s = Permanent then "permanent" else "transient")
          node);
    s

let link_of t ~sender ~receiver =
  match
    List.assoc_opt (Server.name sender, Server.name receiver) t.plan.links
  with
  | Some l -> l
  | None -> t.plan.default_link

let transmission t ~sender ~receiver ~attempt =
  t.step <- t.step + 1;
  let verdict =
    match t.rng with
    | None -> Deliver
    | Some rng ->
      let link = link_of t ~sender ~receiver in
      (* Two independent rolls, always both consumed so the stream stays
         aligned whatever the outcome. *)
      let dropped = Workload.Rng.flip rng link.drop in
      let corrupted = Workload.Rng.flip rng link.corrupt in
      if dropped then Drop else if corrupted then Corrupt else Deliver
  in
  record t (Attempted { step = t.step; sender; receiver; attempt; verdict });
  verdict

(* Cumulative backoff is clamped at the plan's ceiling: once the
   injector has accrued [backoff_ceiling] seconds of simulated waiting,
   further waits cost zero additional delay (the retry chain still
   advances steps, so it still terminates by the retry budget). Without
   the clamp a pathological retry plan — large base or factor, many
   transfers — grows logical time without bound and starves the DES
   downstream of it. A clamped wait is flagged in the schedule. *)
let wait t ~attempt =
  t.step <- t.step + 1;
  let raw = backoff t.plan attempt in
  let budget = Float.max 0.0 (t.plan.backoff_ceiling -. t.delay) in
  let delay = Float.min raw budget in
  let clamped = delay < raw in
  t.delay <- t.delay +. delay;
  record t (Waited { step = t.step; attempt; delay; clamped });
  delay

let pp_verdict ppf = function
  | Deliver -> Fmt.string ppf "deliver"
  | Drop -> Fmt.string ppf "drop"
  | Corrupt -> Fmt.string ppf "corrupt"

let pp_event ppf = function
  | Attempted { step; sender; receiver; attempt; verdict } ->
    Fmt.pf ppf "step %d: attempt %d %a -> %a: %a" step attempt Server.pp
      sender Server.pp receiver pp_verdict verdict
  | Waited { step; attempt; delay; clamped } ->
    Fmt.pf ppf "step %d: backoff before retry %d (%g s%s)" step attempt delay
      (if clamped then ", clamped at ceiling" else "")
  | Outage { step; server; node; permanent } ->
    Fmt.pf ppf "step %d: %a down at n%d (%s)" step Server.pp server node
      (if permanent then "permanent" else "transient")
