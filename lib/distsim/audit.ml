open Relalg
open Authz

type reason =
  | Unauthorized
  | Header_mismatch of {
      header : Attribute.Set.t;
      claimed : Attribute.Set.t;
    }

type violation = {
  message : Network.message;
  reason : reason;
}

type entry = {
  request : int;
  seq : int;
  sender : Server.t;
  receiver : Server.t;
  join : int;
  admitted_by : Authorization.t option;
  rows : int;
  bytes : int;
}

let entry ~request admitted_by (m : Network.message) =
  {
    request;
    seq = m.seq;
    sender = m.sender;
    receiver = m.receiver;
    join = Network.join_of m.purpose;
    admitted_by;
    rows = Relation.cardinality m.data;
    bytes = Network.wire_bytes m;
  }

(* One policy probe per flow, keyed by the path id the message
   carries. Under a closed policy the rule that admits the flow is the
   verdict: [Some] admits and is cited, [None] is a violation. An open
   policy has no positive rule to cite; it admits whatever no denial
   matches. The header check is a pointer comparison when the engine
   gave the transmitted header the profile's own [pi] set, and a set
   comparison otherwise. *)
let check_message ~request policy (m : Network.message) =
  let header = Relation.attribute_set m.data in
  let claimed = m.profile.Profile.pi in
  if not (header == claimed || Attribute.Set.equal header claimed) then
    Error { message = m; reason = Header_mismatch { header; claimed } }
  else if Policy.is_open policy then
    if Policy.can_view policy m.profile m.receiver then
      Ok (entry ~request None m)
    else Error { message = m; reason = Unauthorized }
  else
    match
      Policy.authorizing_rule policy ~path_id:m.path_id m.receiver
        (Profile.visible m.profile)
    with
    | Some _ as rule -> Ok (entry ~request rule m)
    | None -> Error { message = m; reason = Unauthorized }

let run ?(request = 0) policy network =
  let rec go entries violations = function
    | m :: rest -> (
      match check_message ~request policy m with
      | Ok e -> go (e :: entries) violations rest
      | Error v -> go entries (v :: violations) rest)
    | [] ->
      if violations = [] then Ok (List.rev entries)
      else Error (List.rev violations)
  in
  go [] [] (Network.messages network)

let is_clean policy network = Result.is_ok (run policy network)

let pp_reason ppf = function
  | Unauthorized -> Fmt.string ppf "no authorization admits this flow"
  | Header_mismatch { header; claimed } ->
    let undeclared = Attribute.Set.diff header claimed
    and missing = Attribute.Set.diff claimed header in
    Fmt.pf ppf "transmitted attributes %a differ from declared profile %a"
      Attribute.Set.pp header Attribute.Set.pp claimed;
    if not (Attribute.Set.is_empty undeclared) then
      Fmt.pf ppf "; transmitted but not declared: %a" Attribute.Set.pp
        undeclared;
    if not (Attribute.Set.is_empty missing) then
      Fmt.pf ppf "; declared but not transmitted: %a" Attribute.Set.pp
        missing

let pp_violation ppf (v : violation) =
  Fmt.pf ppf "VIOLATION %a: %a" Network.pp_message v.message pp_reason v.reason

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "request %d #%d %a -> %a at n%d: %d tuples, %d bytes" e.request
    e.seq Server.pp e.sender Server.pp e.receiver e.join e.rows e.bytes;
  Option.iter (Fmt.pf ppf "@,  admitted by %a" Authorization.pp) e.admitted_by
