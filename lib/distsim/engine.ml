open Relalg
open Authz

let src = Logs.Src.create "cisqp.engine" ~doc:"Distributed execution engine"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = {
  result : Relation.t;
  location : Server.t;
  network : Network.t;
  node_rows : (int * int) list;
  steps : int;
}

type error =
  | Structure of Planner.Safety.error
  | Missing_instance of string
  | Stale_instance of string
  | Uncertified_flow of { node : int; sender : Server.t; receiver : Server.t }
  | Server_down of { server : Server.t; node : int; permanent : bool }
  | Transfer_failed of {
      sender : Server.t;
      receiver : Server.t;
      node : int;
      attempts : int;
    }
  | Deadline_exceeded of { node : int; spent : int; budget : int }

let pp_error ppf = function
  | Structure e -> Planner.Safety.pp_error ppf e
  | Missing_instance r -> Fmt.pf ppf "no instance for base relation %S" r
  | Stale_instance r ->
    Fmt.pf ppf "the instance of %S no longer has the header it was compiled for"
      r
  | Uncertified_flow { node; sender; receiver } ->
    Fmt.pf ppf "the transmission %a -> %a at n%d matches no certified flow"
      Server.pp sender Server.pp receiver node
  | Server_down { server; node; permanent } ->
    Fmt.pf ppf "server %a is down at n%d (%s)" Server.pp server node
      (if permanent then "permanent crash" else "retries exhausted")
  | Transfer_failed { sender; receiver; node; attempts } ->
    Fmt.pf ppf "transfer %a -> %a at n%d failed after %d attempts" Server.pp
      sender Server.pp receiver node attempts
  | Deadline_exceeded { node; spent; budget } ->
    Fmt.pf ppf "deadline exceeded at n%d (%d steps spent, budget %d)" node
      spent budget

exception Fail of error

module Assignment = Planner.Assignment
module Header = Relation.Header

(* One boundary crossing, fixed when the plan is compiled: everything
   but the data it carries. *)
type transmission = {
  node : int;
  sender : Server.t;
  receiver : Server.t;
  purpose : Network.purpose;
  note : string;
  profile : Profile.t;
  path_id : int;  (** [Intern.path_id profile.join] *)
}

(* The state of one run. *)
type ctx = {
  fault : Fault.t;
  network : Network.t;
  start : int;  (** the injector's steps when the run began *)
  deadline : int option;
  observe : (int -> Relation.t -> unit) option;
  mutable rows : (int * int) list;
}

type program = {
  root : ctx -> Relation.t;
  location : Server.t;
  assignment : Assignment.t;
  certificate : Analysis.Certificate.plan_cert option;
  rescues : Planner.Third_party.rescue list;
}

let assignment p = p.assignment
let certificate p = p.certificate
let rescues p = p.rescues

(* ------------------------------------------------------------------ *)
(* Run-time steps: the fault injector's charge-check-act discipline.   *)

(* The query's time budget, charged against the injector's step counter
   from the moment the run began: one compute, one transmission attempt
   or one backoff wait each cost one step, so retries and backoff
   chains eat the budget. Every step follows one rule, charge, check,
   act: the injector advances, the deadline is checked, and only then
   does the compute run or the message leave. *)
let spent ctx = Fault.steps ctx.fault - ctx.start

let check_deadline ctx node =
  match ctx.deadline with
  | None -> ()
  | Some budget ->
    let s = spent ctx in
    if s > budget then
      raise (Fail (Deadline_exceeded { node; spent = s; budget }))

(* A compute step at [server]: wait out a transient outage (bounded
   retries with deterministic backoff); permanent crashes and exhausted
   retries abort the execution with a typed error the supervisor turns
   into a failover. *)
let ensure_up ctx server node =
  let f = ctx.fault in
  match Fault.compute f ~server ~node with
  | Fault.Up -> check_deadline ctx node
  | Fault.Permanent ->
    raise (Fail (Server_down { server; node; permanent = true }))
  | Fault.Transient ->
    check_deadline ctx node;
    let max_retries = (Fault.plan_of f).Fault.max_retries in
    let rec retry attempt =
      if attempt > max_retries then
        raise (Fail (Server_down { server; node; permanent = false }))
      else begin
        ignore (Fault.wait f ~attempt);
        check_deadline ctx node;
        match Fault.status f server with
        | Fault.Up -> ()
        | Fault.Permanent ->
          raise (Fail (Server_down { server; node; permanent = true }))
        | Fault.Transient -> retry (attempt + 1)
      end
    in
    retry 1

let alive ctx ~node who =
  match Fault.status ctx.fault who with
  | Fault.Permanent ->
    raise (Fail (Server_down { server = who; node; permanent = true }))
  | (Fault.Up | Fault.Transient) as s -> s

(* Every boundary crossing goes through here, as attempt [k] of its
   transfer. Each attempt is logged with its fate — an emission is an
   emission, delivered or not, so the audit sees dropped and corrupted
   attempts too — and retries re-emit the same data under the same
   profile after a deterministic backoff. *)
let rec xmit ctx ?(payload = Network.Rows) ?(k = 1) tx data =
  let node = tx.node and sender = tx.sender and receiver = tx.receiver in
  let sender_status = alive ctx ~node sender in
  let receiver_status = alive ctx ~node receiver in
  let verdict =
    if sender_status = Fault.Transient then
      (* Nothing leaves a downed sender: no emission to log. *)
      `Mute
    else if receiver_status = Fault.Transient then `Lost
    else
      let v = Fault.transmission ctx.fault ~sender ~receiver ~attempt:k in
      check_deadline ctx node;
      match v with
      | Fault.Deliver -> `Deliver
      | Fault.Drop -> `Lost
      | Fault.Corrupt -> `Corrupt
  in
  let send ?delivery () =
    Network.send ctx.network ~attempt:k ?delivery ~payload ~path_id:tx.path_id
      ~sender ~receiver ~profile:tx.profile ~purpose:tx.purpose ~note:tx.note
      data
  in
  match verdict with
  | `Deliver -> send ()
  | (`Mute | `Lost | `Corrupt) as v ->
    (if v <> `Mute then
       let delivery =
         if v = `Corrupt then Network.Corrupted else Network.Dropped
       in
       ignore (send ~delivery ()));
    if k >= 1 + (Fault.plan_of ctx.fault).Fault.max_retries then
      raise (Fail (Transfer_failed { sender; receiver; node; attempts = k }))
    else begin
      ignore (Fault.wait ctx.fault ~attempt:k);
      check_deadline ctx node;
      xmit ctx ~payload ~k:(k + 1) tx data
    end

(* A node's step, bracketed by its bookkeeping: its cardinality for
   [node_rows], the [observe] hook, a debug line. *)
let finished id at step ctx =
  let value = step ctx in
  let rows = Relation.cardinality value in
  ctx.rows <- (id, rows) :: ctx.rows;
  (match ctx.observe with Some f -> f id value | None -> ());
  Log.debug (fun m -> m "n%d done at %a: %d tuples" id Server.pp at rows);
  value

(* ------------------------------------------------------------------ *)
(* Compilation.                                                        *)

(* A compiled sub-plan: where its result lives, its Figure-4 profile
   and output header (both for compiling its parent), and its step.
   Steps capture only what they run on, never a [code]. *)
type code = {
  at : Server.t;
  profile : Profile.t;
  header : Header.t;
  step : ctx -> Relation.t;
}

(* The key a Bloom filter takes: the values at [pos], in order. *)
let key_at pos row = List.map (fun p -> row.(p)) pos

let compile ?(third_party = false) ?executor ?bloom ?certificate catalog
    ~instances plan assignment =
  (match bloom with
   | Some b when b < 1 ->
     invalid_arg "Engine.compile: bloom bits per key must be >= 1"
   | _ -> ());
  (* Every operator is planned against its operands' headers here, once,
     whatever the executor: that fixes the output headers and checks
     the operands. Without an executor the planned positional
     operators run; with one, its operators run, given the compiled
     sets and conditions. *)
  let op planned custom =
    match executor with None -> planned | Some e -> custom e
  in
  let project attrs h =
    let out, run = Relation.plan_project attrs h in
    (out, op run (fun (module E : Exec.S) -> E.project attrs))
  in
  let select pred h =
    op (Relation.plan_select pred h) (fun (module E : Exec.S) -> E.select pred)
  in
  let equi_join cond lh rh =
    let out, run = Relation.plan_equi_join cond lh rh in
    (out, op run (fun (module E : Exec.S) -> E.equi_join cond))
  in
  let semi_join cond lh rh =
    op (Relation.plan_semi_join cond lh rh) (fun (module E : Exec.S) ->
        E.semi_join cond)
  in
  let natural_join lh rh =
    let out, run = Relation.plan_natural_join lh rh in
    (out, op run (fun (module E : Exec.S) -> E.natural_join))
  in
  (* The certified flows no transmission has matched yet. Each
     transmission must take one: same node, sender, receiver and
     profile, counted as a multiset. It then carries the certificate's
     own profile value. *)
  let unmatched =
    ref
      (Option.map
         (fun (c : Analysis.Certificate.plan_cert) -> c.flows)
         certificate)
  in
  let certified ~node ~sender ~receiver profile =
    match !unmatched with
    | None -> profile
    | Some flows -> (
      let fits (f : Analysis.Certificate.flow_evidence) =
        f.at = node
        && Server.equal f.sender sender
        && Server.equal f.receiver receiver
        && Profile.equal f.profile profile
      in
      match List.find_opt fits flows with
      | None -> raise (Fail (Uncertified_flow { node; sender; receiver }))
      | Some f ->
        unmatched := Some (List.filter (fun g -> g != f) flows);
        f.profile)
  in
  (* [header] is the header the transmitted data will carry: it takes
     the profile's [pi] as its set, so the audit compares the two
     physically. [exempt] skips the certificate (Bloom's reduced
     operand, which is no [Safety] flow). *)
  let transmission ?(exempt = false) ?header ~node ~sender ~receiver ~purpose
      ~note profile =
    let profile =
      if exempt then profile else certified ~node ~sender ~receiver profile
    in
    Option.iter (fun h -> Header.share_set h profile.Profile.pi) header;
    {
      node;
      sender;
      receiver;
      purpose;
      note;
      profile;
      path_id = Intern.path_id profile.join;
    }
  in
  (* The joins a helper rescues, as the protocol decode finds them. *)
  let rescues = ref [] in
  let rescued node helper kind =
    rescues := { Planner.Third_party.node; helper; kind } :: !rescues
  in
  let structure e = raise (Fail (Structure e)) in
  let exec_of (n : Plan.node) =
    match Assignment.find_opt assignment n.id with
    | Some e -> e
    | None -> structure (Planner.Safety.Unassigned_node n.id)
  in
  let rec go (n : Plan.node) =
    let exec = exec_of n in
    let master = exec.Assignment.master and id = n.id in
    (* A unary operation runs at its operand's executor. *)
    let unmoved (child : code) =
      if not (Server.equal master child.at) then
        structure
          (Planner.Safety.Unary_moved
             { node = id; expected = child.at; got = master })
    in
    let unary (child : code) profile (header, run) =
      let child_step = child.step in
      let step ctx =
        let v = child_step ctx in
        ensure_up ctx master id;
        run v
      in
      { at = master; profile; header; step = finished id master step }
    in
    match n.op with
    | Plan.Leaf schema ->
      let name = Schema.name schema in
      if not (Catalog.stores catalog name master) then begin
        let home =
          match Catalog.server_of catalog name with
          | Ok s -> s
          | Error _ -> master
        in
        structure
          (Planner.Safety.Leaf_not_at_home
             { node = id; expected = home; got = master })
      end;
      let header =
        match instances name with
        | Some r -> Relation.header_value r
        | None -> raise (Fail (Missing_instance name))
      in
      (* The positions downstream were computed for this header: an
         instance that has changed it since must not run. *)
      let step ctx =
        ensure_up ctx master id;
        match instances name with
        | None -> raise (Fail (Missing_instance name))
        | Some r ->
          if Header.equal (Relation.header_value r) header then r
          else raise (Fail (Stale_instance name))
      in
      {
        at = master;
        profile = Profile.of_base schema;
        header;
        step = finished id master step;
      }
    | Plan.Project (attrs, c) ->
      let child = go c in
      unmoved child;
      unary child
        (Profile.project attrs child.profile)
        (project attrs child.header)
    | Plan.Select (pred, c) ->
      let child = go c in
      unmoved child;
      unary child
        (Profile.select (Predicate.attributes pred) child.profile)
        (child.header, select pred child.header)
    | Plan.Join (cond, l, r) ->
      let lc = go l in
      let rc = go r in
      join n exec lc rc cond

  and join (n : Plan.node) exec (lc : code) (rc : code) cond =
    let master = exec.Assignment.master and id = n.id in
    let profile = Profile.join cond lc.profile rc.profile in
    let transmission = transmission ~node:id in
    let note fmt = Printf.sprintf fmt id in
    (* The node's step: the left child, then the right, then the
       master's compute step, then the protocol, given the master-side
       operand first when [master_right]. *)
    let node ?(master_right = false) (header, protocol) =
      let l_step = lc.step and r_step = rc.step in
      let step ctx =
        let lv = l_step ctx in
        let rv = r_step ctx in
        ensure_up ctx master id;
        if master_right then protocol ctx rv lv else protocol ctx lv rv
      in
      { at = master; profile; header; step = finished id master step }
    in
    (* The join of the master-side value [mv] with the other side's
       [ov], over headers [mh] and [oh], in plan orientation. *)
    let oriented_join ~master_right mh oh =
      if master_right then
        let out, run = equi_join cond oh mh in
        (out, fun mv ov -> run ov mv)
      else equi_join cond mh oh
    in
    (* [semi] runs the five-step protocol of Figure 5 with [m] the
       master-side operand (joining on its [mj] attributes) and [o] the
       other (slave-side) one. *)
    let semi ~slave ~(m : code) ~(o : code) ~mj ~oj ~master_right =
      (* Step 1: the master projects its join attributes. *)
      let mj_set = Attribute.Set.of_list mj in
      let hj, project_j = project mj_set m.header in
      let p_j = Profile.project mj_set m.profile in
      let p_jlr = Profile.join cond p_j o.profile in
      match bloom with
      | None ->
        let tx_j =
          transmission ~header:hj ~sender:master ~receiver:slave
            ~purpose:(Network.Join_attributes { join = id })
            ~note:(note "join attributes for n%d") p_j
        in
        let hjlr, join_back =
          equi_join (Joinpath.Cond.make ~left:mj ~right:oj) hj o.header
        in
        let tx_back =
          transmission ~header:hjlr ~sender:slave ~receiver:master
            ~purpose:(Network.Semijoin_result { join = id })
            ~note:(note "semi-join result for n%d") p_jlr
        in
        let header, complete = natural_join hjlr m.header in
        ( header,
          fun ctx mv ov ->
            (* Step 2: ship them to the slave. *)
            let r_j = xmit ctx tx_j (project_j mv) in
            (* Step 3: the slave joins them with its operand. *)
            ensure_up ctx slave id;
            (* Step 4: ship the reduced operand back to the master. *)
            let r_jlr = xmit ctx tx_back (join_back r_j ov) in
            (* Step 5: the master completes with a natural join. *)
            complete r_jlr mv )
      | Some bits_per_key ->
        (* Bloom variant: steps 1-2 ship a filter summarising the
           projected column instead of the column itself. The message
           still records the column as its data — that is the
           information the filter discloses, so profile and audit
           accounting are unchanged — but only the filter's bits cross
           the wire ({!Network.wire_bytes}). *)
        let tx_j =
          transmission ~header:hj ~sender:master ~receiver:slave
            ~purpose:(Network.Join_attributes { join = id })
            ~note:(note "join-attribute Bloom filter for n%d") p_j
        in
        (* Step 4 ships the slave's operand alone, reduced — no copy of
           [mj] rides along as in the exact path — so its profile keeps
           the join/sigma information of [p_jlr] (the reduction does
           disclose the join) over the slave's own attributes, exactly
           like the coordinator protocol's reduced operand. That is no
           {!Planner.Safety} flow: the certificate cannot cover it. *)
        let tx_reduced =
          transmission ~exempt:true ~sender:slave ~receiver:master
            ~purpose:(Network.Semijoin_result { join = id })
            ~note:(note "semi-join result for n%d")
            (Profile.make ~pi:o.profile.Profile.pi ~join:p_jlr.Profile.join
               ~sigma:p_jlr.Profile.sigma)
        in
        let m_key = List.map (Header.position hj) mj
        and o_key = List.map (Header.position o.header) oj in
        (* Step 5: the reduced operand carries only the slave's
           attributes (no [mj] copy to merge on), so the master
           completes with the sided equi-join. *)
        let header, complete = oriented_join ~master_right m.header o.header in
        ( header,
          fun ctx mv ov ->
            let r_j = project_j mv in
            let filter =
              Bloom.of_keys ~bits_per_key
                (Array.to_list (Array.map (key_at m_key) (Relation.rows r_j)))
            in
            ignore
              (xmit ctx
                 ~payload:
                   (Network.Filter
                      { bits = Bloom.bits filter; hashes = Bloom.hashes filter })
                 tx_j r_j);
            (* Step 3: the slave keeps the rows whose keys may match.
               False positives survive here — they inflate the
               ship-back, and the step-5 join at the master discards
               them; the result is exact either way. *)
            ensure_up ctx slave id;
            let reduced =
              Relation.of_arrays (Relation.header ov)
                (Array.of_seq
                   (Seq.filter
                      (fun row -> Bloom.mem filter (key_at o_key row))
                      (Array.to_seq (Relation.rows ov))))
            in
            complete mv (xmit ctx tx_reduced reduced) )
    in
    let regular ~(m : code) ~(o : code) ~master_right =
      let tx =
        transmission ~header:o.header ~sender:o.at ~receiver:master
          ~purpose:(Network.Full_operand { join = id })
          ~note:(note "full operand for n%d") o.profile
      in
      let header, complete = oriented_join ~master_right m.header o.header in
      (header, fun ctx mv ov -> complete mv (xmit ctx tx ov))
    in
    (* Coordinator join (footnote 3): a third party [t] matches the join
       columns of both operands; the non-master operand is reduced to
       the matching tuples and shipped to the master. *)
    let coordinated ~t ~(m : code) ~(o : code) ~mj ~oj ~master_right =
      let mj_set = Attribute.Set.of_list mj in
      let oj_set = Attribute.Set.of_list oj in
      let joined_info pi =
        Profile.make ~pi
          ~join:
            (Joinpath.add cond
               (Joinpath.union m.profile.Profile.join o.profile.Profile.join))
          ~sigma:
            (Attribute.Set.union m.profile.Profile.sigma
               o.profile.Profile.sigma)
      in
      let hm, project_m = project mj_set m.header in
      let ho, project_o = project oj_set o.header in
      let tx_m =
        transmission ~header:hm ~sender:m.at ~receiver:t
          ~purpose:(Network.Join_attributes { join = id })
          ~note:(note "master join attributes for n%d")
          (Profile.project mj_set m.profile)
      in
      let tx_o =
        transmission ~header:ho ~sender:o.at ~receiver:t
          ~purpose:(Network.Join_attributes { join = id })
          ~note:(note "other join attributes for n%d")
          (Profile.project oj_set o.profile)
      in
      let hk, match_keys =
        equi_join (Joinpath.Cond.make ~left:mj ~right:oj) hm ho
      in
      let hmatched, project_matched = project oj_set hk in
      let tx_matched =
        transmission ~header:hmatched ~sender:t ~receiver:o.at
          ~purpose:(Network.Matched_keys { join = id })
          ~note:(note "matched keys for n%d") (joined_info oj_set)
      in
      let reduce =
        semi_join (Joinpath.Cond.make ~left:oj ~right:oj) o.header hmatched
      in
      let tx_reduced =
        transmission ~header:o.header ~sender:o.at ~receiver:master
          ~purpose:(Network.Semijoin_result { join = id })
          ~note:(note "reduced operand for n%d")
          (joined_info o.profile.Profile.pi)
      in
      let o_at = o.at in
      let header, complete = oriented_join ~master_right m.header o.header in
      ( header,
        fun ctx mv ov ->
          let m_keys = xmit ctx tx_m (project_m mv) in
          let o_keys = xmit ctx tx_o (project_o ov) in
          ensure_up ctx t id;
          let matched =
            xmit ctx tx_matched (project_matched (match_keys m_keys o_keys))
          in
          ensure_up ctx o_at id;
          complete mv (xmit ctx tx_reduced (reduce ov matched)) )
    in
    let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
    (* The master's operand [m] and the other one [o], with their join
       attributes. *)
    let sided (side : Planner.Safety.side) protocol =
      match side with
      | Left -> node (protocol ~m:lc ~o:rc ~mj:jl ~oj:jr ~master_right:false)
      | Right ->
        node ~master_right:true
          (protocol ~m:rc ~o:lc ~mj:jr ~oj:jl ~master_right:true)
    in
    match
      Planner.Safety.protocol ~third_party ~node:id exec ~left:lc.at
        ~right:rc.at
    with
    | Error e -> structure e
    | Ok Local ->
      let header, run = equi_join cond lc.header rc.header in
      node (header, fun _ lv rv -> run lv rv)
    | Ok (Regular side) ->
      sided side (fun ~m ~o ~mj:_ ~oj:_ ~master_right ->
          regular ~m ~o ~master_right)
    | Ok (Semi (side, slave)) -> sided side (semi ~slave)
    | Ok (Coordinated (side, _, t)) ->
      rescued id t Coordinator;
      sided side (coordinated ~t)
    | Ok Proxy ->
      rescued id master Proxy;
      (* Proxy join: both operands ship their results. *)
      let tx_l =
        transmission ~header:lc.header ~sender:lc.at ~receiver:master
          ~purpose:(Network.Proxy_operand { join = id; side = `Left })
          ~note:(note "left operand for proxy n%d") lc.profile
      in
      let tx_r =
        transmission ~header:rc.header ~sender:rc.at ~receiver:master
          ~purpose:(Network.Proxy_operand { join = id; side = `Right })
          ~note:(note "right operand for proxy n%d") rc.profile
      in
      let header, run = equi_join cond lc.header rc.header in
      node
        ( header,
          fun ctx lv rv ->
            let lv = xmit ctx tx_l lv in
            run lv (xmit ctx tx_r rv) )
  in
  match go (Plan.root plan) with
  | root ->
    Ok
      {
        root = root.step;
        location = root.at;
        assignment;
        certificate;
        rescues =
          List.sort
            (fun (a : Planner.Third_party.rescue) b ->
              Int.compare a.node b.node)
            !rescues;
      }
  | exception Fail e -> Error e

let run ?fault ?network ?deadline ?observe program =
  let network = match network with Some n -> n | None -> Network.create () in
  let fault =
    match fault with Some f -> f | None -> Fault.start Fault.reliable
  in
  let ctx =
    { fault; network; start = Fault.steps fault; deadline; observe; rows = [] }
  in
  match program.root ctx with
  | result ->
    Ok
      {
        result;
        location = program.location;
        network;
        node_rows = List.sort (fun (a, _) (b, _) -> Int.compare a b) ctx.rows;
        steps = spent ctx;
      }
  | exception Fail e -> Error e

let execute ?third_party ?executor ?bloom ?fault ?network ?deadline ?observe
    catalog ~instances plan assignment =
  Result.bind
    (compile ?third_party ?executor ?bloom catalog ~instances plan assignment)
    (run ?fault ?network ?deadline ?observe)

let centralized ~instances plan =
  let lookup schema =
    match instances (Schema.name schema) with
    | Some r -> r
    | None ->
      invalid_arg
        (Printf.sprintf "Engine.centralized: no instance for %s"
           (Schema.name schema))
  in
  Algebra.eval ~lookup (Plan.to_algebra plan)
