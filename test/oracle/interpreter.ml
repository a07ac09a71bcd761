(* The tree-walking interpreter the engine was before it compiled
   plans: every run re-derives each node's profile, output header and
   message notes from the plan, and applies the executor's unplanned
   operators. It shares no compiled step with {!Distsim.Engine}, so a
   defect in compilation cannot show up on both sides of the
   differential. *)

open Relalg
open Authz
open Distsim
module Assignment = Planner.Assignment

exception Fail of Engine.error


(* One evaluated sub-plan: its value, the server holding it, and its
   profile (recomputed here from the operations performed, not taken
   from the planner). *)
type piece = {
  value : Relation.t;
  at : Server.t;
  profile : Profile.t;
}

(* [key_of rel attrs row] lists [row]'s values of [attrs], for a row of
   [rel]: the positional key a Bloom filter takes. *)
let key_of rel attrs =
  let header = Array.of_list (Relation.header rel) in
  let position a =
    let rec from i = if Attribute.equal header.(i) a then i else from (i + 1) in
    from 0
  in
  let pos = List.map position attrs in
  fun row -> List.map (fun p -> row.(p)) pos

let execute ?(third_party = false)
    ?(executor = (module Exec.Reference : Exec.S)) ?bloom ?fault ?network
    ?deadline ?observe catalog ~instances plan assignment =
  let module E = (val executor : Exec.S) in
  (match bloom with
  | Some b when b < 1 ->
    invalid_arg "Engine.execute: bloom bits per key must be >= 1"
  | _ -> ());
  let network =
    match network with Some n -> n | None -> Network.create ()
  in
  let f = match fault with Some f -> f | None -> Fault.start Fault.reliable in
  let rows = ref [] in
  (* The query's time budget, charged against the injector's step
     counter from the moment [execute] is entered: one compute, one
     transmission attempt or one backoff wait each cost one step, so
     retries and backoff chains eat the budget. Every step follows one
     rule, charge, check, act: the injector advances, the deadline is
     checked, and only then does the compute run or the message leave. *)
  let start_steps = Fault.steps f in
  let spent () = Fault.steps f - start_steps in
  let check_deadline node =
    match deadline with
    | None -> ()
    | Some budget ->
      let s = spent () in
      if s > budget then
        raise (Fail (Engine.Deadline_exceeded { node; spent = s; budget }))
  in
  let exec_of (n : Plan.node) =
    match Assignment.find_opt assignment n.id with
    | Some e -> e
    | None -> raise (Fail (Engine.Structure (Planner.Safety.Unassigned_node n.id)))
  in
  (* A compute step at [server]: wait out a transient outage (bounded
     retries with deterministic backoff); permanent crashes and
     exhausted retries abort the execution with a typed error the
     supervisor turns into a failover. *)
  let ensure_up server node =
    match Fault.compute f ~server ~node with
    | Fault.Up -> check_deadline node
    | Fault.Permanent ->
      raise (Fail (Engine.Server_down { server; node; permanent = true }))
    | Fault.Transient ->
      check_deadline node;
      let max_retries = (Fault.plan_of f).Fault.max_retries in
      let rec retry attempt =
        if attempt > max_retries then
          raise (Fail (Engine.Server_down { server; node; permanent = false }))
        else begin
          ignore (Fault.wait f ~attempt);
          check_deadline node;
          match Fault.status f server with
          | Fault.Up -> ()
          | Fault.Permanent ->
            raise (Fail (Engine.Server_down { server; node; permanent = true }))
          | Fault.Transient -> retry (attempt + 1)
        end
      in
      retry 1
  in
  let max_attempts = 1 + (Fault.plan_of f).Fault.max_retries in
  let alive ~node who =
    match Fault.status f who with
    | Fault.Permanent ->
      raise (Fail (Engine.Server_down { server = who; node; permanent = true }))
    | (Fault.Up | Fault.Transient) as s -> s
  in
  (* Every boundary crossing goes through here, as attempt [k] of its
     transfer. Each attempt is logged with its fate — an emission is an
     emission, delivered or not, so the audit sees dropped and corrupted
     attempts too — and retries re-emit the same data under the same
     profile after a deterministic backoff. *)
  let rec xmit ?(payload = Network.Rows) ?(k = 1) ~node ~sender ~receiver
      ~profile ~purpose ~note data =
    let sender_status = alive ~node sender in
    let receiver_status = alive ~node receiver in
    let verdict =
      if sender_status = Fault.Transient then
        (* Nothing leaves a downed sender: no emission to log. *)
        `Mute
      else if receiver_status = Fault.Transient then `Lost
      else
        let v = Fault.transmission f ~sender ~receiver ~attempt:k in
        check_deadline node;
        match v with
        | Fault.Deliver -> `Deliver
        | Fault.Drop -> `Lost
        | Fault.Corrupt -> `Corrupt
    in
    match verdict with
    | `Deliver ->
      Network.send network ~attempt:k ~payload ~sender ~receiver ~profile
        ~purpose ~note data
    | (`Mute | `Lost | `Corrupt) as v ->
      (if v <> `Mute then
         let delivery =
           if v = `Corrupt then Network.Corrupted else Network.Dropped
         in
         ignore
           (Network.send network ~attempt:k ~delivery ~payload ~sender
              ~receiver ~profile ~purpose ~note data));
      if k >= max_attempts then
        raise (Fail (Engine.Transfer_failed { sender; receiver; node; attempts = k }))
      else begin
        ignore (Fault.wait f ~attempt:k);
        check_deadline node;
        xmit ~payload ~k:(k + 1) ~node ~sender ~receiver ~profile ~purpose
          ~note data
      end
  in
  let rec go (n : Plan.node) : piece =
    let piece = go_op n in
    rows := (n.id, Relation.cardinality piece.value) :: !rows;
    (match observe with Some f -> f n.id piece.value | None -> ());
    piece

  and go_op (n : Plan.node) : piece =
    let exec = exec_of n in
    let master = exec.Assignment.master in
    match n.op with
    | Plan.Leaf schema ->
      let name = Schema.name schema in
      if not (Catalog.stores catalog name master) then begin
        let home =
          match Catalog.server_of catalog name with
          | Ok s -> s
          | Error _ -> master
        in
        raise
          (Fail
             (Engine.Structure
                (Planner.Safety.Leaf_not_at_home
                   { node = n.id; expected = home; got = master })))
      end;
      ensure_up master n.id;
      let value =
        match instances name with
        | Some r -> r
        | None -> raise (Fail (Engine.Missing_instance name))
      in
      { value; at = master; profile = Profile.of_base schema }
    | Plan.Project (attrs, c) ->
      let child = go c in
      if not (Server.equal master child.at) then
        raise
          (Fail
             (Engine.Structure
                (Planner.Safety.Unary_moved
                   { node = n.id; expected = child.at; got = master })));
      ensure_up master n.id;
      {
        value = E.project attrs child.value;
        at = master;
        profile = Profile.project attrs child.profile;
      }
    | Plan.Select (pred, c) ->
      let child = go c in
      if not (Server.equal master child.at) then
        raise
          (Fail
             (Engine.Structure
                (Planner.Safety.Unary_moved
                   { node = n.id; expected = child.at; got = master })));
      ensure_up master n.id;
      {
        value = E.select pred child.value;
        at = master;
        profile = Profile.select (Predicate.attributes pred) child.profile;
      }
    | Plan.Join (cond, l, r) ->
      let lp = go l and rp = go r in
      ensure_up master n.id;
      let profile = Profile.join cond lp.profile rp.profile in
      let join_here lpiece rpiece =
        E.equi_join cond lpiece.value rpiece.value
      in
      if Server.equal lp.at rp.at && Server.equal master lp.at then
        (* Fully local. *)
        { value = join_here lp rp; at = master; profile }
      else
        (* [semi ~m ~o ~mj] runs the five-step protocol of Figure 5
           with [m] the master-side piece (joining on its [mj]
           attributes) and [o] the other (slave-side) piece. *)
        let semi ~slave ~(m : piece) ~(o : piece) ~mj ~oj ~left_is_master =
          (* Step 1: master projects its join attributes. *)
          let mj_set = Attribute.Set.of_list mj in
          let r_j = E.project mj_set m.value in
          let p_j = Profile.project mj_set m.profile in
          let p_jlr = Profile.join cond p_j o.profile in
          match bloom with
          | None ->
            (* Step 2: ship them to the slave. *)
            let r_j =
              xmit ~node:n.id ~sender:master ~receiver:slave ~profile:p_j
                ~purpose:(Network.Join_attributes { join = n.id })
                ~note:(Printf.sprintf "join attributes for n%d" n.id)
                r_j
            in
            (* Step 3: slave joins them with its operand. *)
            ensure_up slave n.id;
            let sided_cond = Joinpath.Cond.make ~left:mj ~right:oj in
            let r_jlr = E.equi_join sided_cond r_j o.value in
            (* Step 4: ship the reduced operand back to the master. *)
            let r_jlr =
              xmit ~node:n.id ~sender:slave ~receiver:master
                ~profile:p_jlr
                ~purpose:(Network.Semijoin_result { join = n.id })
                ~note:(Printf.sprintf "semi-join result for n%d" n.id)
                r_jlr
            in
            (* Step 5: the master completes with a natural join. *)
            let value = E.natural_join r_jlr m.value in
            (* Restore the canonical header/profile of the node. *)
            { value; at = master; profile }
          | Some bits_per_key ->
            (* Bloom variant: steps 1-2 ship a filter summarising the
               projected column instead of the column itself. The
               message still records [r_j] as its data — that is the
               information the filter discloses, so profile and audit
               accounting are unchanged — but only the filter's bits
               cross the wire ({!Network.wire_bytes}). *)
            let filter =
              Bloom.of_keys ~bits_per_key
                (Array.to_list (Array.map (key_of r_j mj) (Relation.rows r_j)))
            in
            ignore
              (xmit ~node:n.id
                 ~payload:
                   (Network.Filter
                      { bits = Bloom.bits filter; hashes = Bloom.hashes filter })
                 ~sender:master ~receiver:slave ~profile:p_j
                 ~purpose:(Network.Join_attributes { join = n.id })
                 ~note:(Printf.sprintf "join-attribute Bloom filter for n%d" n.id)
                 r_j);
            (* Step 3: slave keeps the rows whose keys may match. False
               positives survive here — they inflate the ship-back, and
               the step-5 join at the master discards them; the result
               is exact either way. *)
            ensure_up slave n.id;
            let reduced =
              let key = key_of o.value oj in
              Relation.of_arrays (Relation.header o.value)
                (Array.of_seq
                   (Seq.filter
                      (fun row -> Bloom.mem filter (key row))
                      (Array.to_seq (Relation.rows o.value))))
            in
            (* Step 4: ship the reduced operand back. Its header is the
               slave operand's alone — no copy of [mj] rides along as in
               the exact path — so its profile keeps the join/sigma
               information of [p_jlr] (the reduction does disclose the
               join) over the slave's own attributes, exactly like the
               coordinator protocol's reduced operand. *)
            let p_red =
              Profile.make ~pi:o.profile.Profile.pi
                ~join:p_jlr.Profile.join ~sigma:p_jlr.Profile.sigma
            in
            let reduced =
              xmit ~node:n.id ~sender:slave ~receiver:master ~profile:p_red
                ~purpose:(Network.Semijoin_result { join = n.id })
                ~note:(Printf.sprintf "semi-join result for n%d" n.id)
                reduced
            in
            (* Step 5: the reduced operand carries only the slave's
               attributes (no [mj] copy to merge on), so the master
               completes with the sided equi-join. *)
            let value =
              if left_is_master then E.equi_join cond m.value reduced
              else E.equi_join cond reduced m.value
            in
            { value; at = master; profile }
        in
        let regular ~(m : piece) ~(o : piece) ~left_is_master =
          let shipped =
            xmit ~node:n.id ~sender:o.at ~receiver:master
              ~profile:o.profile
              ~purpose:(Network.Full_operand { join = n.id })
              ~note:(Printf.sprintf "full operand for n%d" n.id)
              o.value
          in
          let value =
            if left_is_master then E.equi_join cond m.value shipped
            else E.equi_join cond shipped m.value
          in
          { value; at = master; profile }
        in
        (* Coordinator join (footnote 3): a third party matches the
           join columns of both operands; the non-master operand is
           reduced to the matching tuples and shipped to the master. *)
        let coordinated ~t ~(m : piece) ~(o : piece) ~mj ~oj ~left_master =
          let mj_set = Attribute.Set.of_list mj in
          let oj_set = Attribute.Set.of_list oj in
          let joined_info pi =
            Profile.make ~pi
              ~join:
                (Joinpath.add cond
                   (Joinpath.union m.profile.Profile.join
                      o.profile.Profile.join))
              ~sigma:
                (Attribute.Set.union m.profile.Profile.sigma
                   o.profile.Profile.sigma)
          in
          let m_keys =
            xmit ~node:n.id ~sender:m.at ~receiver:t
              ~profile:(Profile.project mj_set m.profile)
              ~purpose:(Network.Join_attributes { join = n.id })
              ~note:(Printf.sprintf "master join attributes for n%d" n.id)
              (E.project mj_set m.value)
          in
          let o_keys =
            xmit ~node:n.id ~sender:o.at ~receiver:t
              ~profile:(Profile.project oj_set o.profile)
              ~purpose:(Network.Join_attributes { join = n.id })
              ~note:(Printf.sprintf "other join attributes for n%d" n.id)
              (E.project oj_set o.value)
          in
          ensure_up t n.id;
          let matched_at_t =
            E.project oj_set
              (E.equi_join (Joinpath.Cond.make ~left:mj ~right:oj) m_keys
                 o_keys)
          in
          let matched =
            xmit ~node:n.id ~sender:t ~receiver:o.at
              ~profile:(joined_info oj_set)
              ~purpose:(Network.Matched_keys { join = n.id })
              ~note:(Printf.sprintf "matched keys for n%d" n.id)
              matched_at_t
          in
          ensure_up o.at n.id;
          let reduced =
            E.semi_join (Joinpath.Cond.make ~left:oj ~right:oj) o.value matched
          in
          let reduced =
            xmit ~node:n.id ~sender:o.at ~receiver:master
              ~profile:(joined_info o.profile.Profile.pi)
              ~purpose:(Network.Semijoin_result { join = n.id })
              ~note:(Printf.sprintf "reduced operand for n%d" n.id)
              reduced
          in
          let value =
            if left_master then E.equi_join cond m.value reduced
            else E.equi_join cond reduced m.value
          in
          { value; at = master; profile }
        in
        let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
        let operand_master =
          Server.equal master lp.at || Server.equal master rp.at
        in
        match exec.Assignment.coordinator with
        | Some t when operand_master ->
          if
            Server.equal master lp.at
            && exec.Assignment.slave = Some rp.at
          then coordinated ~t ~m:lp ~o:rp ~mj:jl ~oj:jr ~left_master:true
          else if
            Server.equal master rp.at
            && exec.Assignment.slave = Some lp.at
          then coordinated ~t ~m:rp ~o:lp ~mj:jr ~oj:jl ~left_master:false
          else
            raise
              (Fail (Engine.Structure (Planner.Safety.Slave_not_other_operand n.id)))
        | Some _ ->
          raise
            (Fail (Engine.Structure (Planner.Safety.Master_not_an_operand n.id)))
        | None ->
        if Server.equal master lp.at then (
          match exec.Assignment.slave with
          | None -> regular ~m:lp ~o:rp ~left_is_master:true
          | Some slave ->
            if not (Server.equal slave rp.at) then
              raise
                (Fail
                   (Engine.Structure (Planner.Safety.Slave_not_other_operand n.id)));
            semi ~slave ~m:lp ~o:rp ~mj:jl ~oj:jr ~left_is_master:true)
        else if Server.equal master rp.at then (
          match exec.Assignment.slave with
          | None -> regular ~m:rp ~o:lp ~left_is_master:false
          | Some slave ->
            if not (Server.equal slave lp.at) then
              raise
                (Fail
                   (Engine.Structure (Planner.Safety.Slave_not_other_operand n.id)));
            semi ~slave ~m:rp ~o:lp ~mj:jr ~oj:jl ~left_is_master:false)
        else if third_party && exec.Assignment.slave = None then (
          (* Proxy join: both operands ship their results. *)
          let lv =
            xmit ~node:n.id ~sender:lp.at ~receiver:master
              ~profile:lp.profile
              ~purpose:(Network.Proxy_operand { join = n.id; side = `Left })
              ~note:(Printf.sprintf "left operand for proxy n%d" n.id)
              lp.value
          in
          let rv =
            xmit ~node:n.id ~sender:rp.at ~receiver:master
              ~profile:rp.profile
              ~purpose:(Network.Proxy_operand { join = n.id; side = `Right })
              ~note:(Printf.sprintf "right operand for proxy n%d" n.id)
              rp.value
          in
          { value = E.equi_join cond lv rv; at = master; profile })
        else
          raise
            (Fail (Engine.Structure (Planner.Safety.Master_not_an_operand n.id)))
  in
  match go (Plan.root plan) with
  | piece ->
    Ok
      {
        Engine.result = piece.value;
        location = piece.at;
        network;
        node_rows = List.sort (fun (a, _) (b, _) -> Int.compare a b) !rows;
        steps = spent ();
      }
  | exception Fail e -> Error e


(* Positional equality: the same header in the same order and the same
   rows in the same order. *)
let same_relation a b =
  List.equal Attribute.equal (Relation.header a) (Relation.header b)
  && Array.length (Relation.rows a) = Array.length (Relation.rows b)
  && Array.for_all2
       (fun r s ->
         Array.length r = Array.length s && Array.for_all2 Value.equal r s)
       (Relation.rows a) (Relation.rows b)

let same_message (a : Network.message) (b : Network.message) =
  a.seq = b.seq
  && Server.equal a.sender b.sender
  && Server.equal a.receiver b.receiver
  && a.purpose = b.purpose
  && Profile.equal a.profile b.profile
  && a.path_id = b.path_id
  && String.equal a.note b.note
  && a.attempt = b.attempt
  && a.delivery = b.delivery
  && a.payload = b.payload
  && same_relation a.data b.data
  && Network.wire_bytes a = Network.wire_bytes b

let equal_outcome (a : Engine.outcome) (b : Engine.outcome) =
  same_relation a.result b.result
  && Server.equal a.location b.location
  && a.node_rows = b.node_rows
  && a.steps = b.steps
  && List.equal same_message
       (Network.messages a.network)
       (Network.messages b.network)

let equal_result a b =
  match (a, b) with
  | Ok a, Ok b -> equal_outcome a b
  | Error a, Error b ->
    String.equal (Fmt.str "%a" Engine.pp_error a) (Fmt.str "%a" Engine.pp_error b)
  | Ok _, Error _ | Error _, Ok _ -> false
