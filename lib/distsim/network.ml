open Relalg
open Authz

let src = Logs.Src.create "cisqp.network" ~doc:"Simulated network transfers"

module Log = (val Logs.src_log src : Logs.LOG)

type purpose =
  | Full_operand of { join : int }
  | Join_attributes of { join : int }
  | Semijoin_result of { join : int }
  | Matched_keys of { join : int }
  | Proxy_operand of { join : int; side : [ `Left | `Right ] }

type delivery =
  | Delivered
  | Dropped
  | Corrupted

type payload =
  | Rows
  | Filter of { bits : int; hashes : int }

type message = {
  seq : int;
  sender : Server.t;
  receiver : Server.t;
  data : Relation.t;
  payload : payload;
  profile : Profile.t;
  path_id : int;
  purpose : purpose;
  note : string;
  attempt : int;
  delivery : delivery;
}

let wire_bytes m =
  match m.payload with
  | Rows -> Relation.byte_size m.data
  | Filter { bits; _ } -> (bits + 7) / 8

let join_of = function
  | Full_operand { join }
  | Join_attributes { join }
  | Semijoin_result { join }
  | Matched_keys { join }
  | Proxy_operand { join; _ } ->
    join

type t = {
  mutable log : message list; (* reversed *)
  mutable count : int; (* [List.length log]: the next [seq] *)
}

let create () = { log = []; count = 0 }

let push t m =
  t.log <- m :: t.log;
  t.count <- t.count + 1

let send t ?(attempt = 1) ?(delivery = Delivered) ?(payload = Rows) ?path_id
    ~sender ~receiver ~(profile : Profile.t) ~purpose ~note data =
  let seq = t.count in
  let path_id =
    match path_id with Some id -> id | None -> Intern.path_id profile.join
  in
  Log.debug (fun m ->
      m "#%d %a -> %a: %d tuples (%s)" seq Server.pp sender Server.pp receiver
        (Relation.cardinality data) note);
  push t
    {
      seq;
      sender;
      receiver;
      data;
      payload;
      profile;
      path_id;
      purpose;
      note;
      attempt;
      delivery;
    };
  data

let delivered t =
  List.filter (fun m -> m.delivery = Delivered) (List.rev t.log)

let at_join t join =
  List.filter
    (fun m -> join_of m.purpose = join && m.delivery = Delivered)
    (List.rev t.log)

let attempts_at_join t join =
  List.filter (fun m -> join_of m.purpose = join) (List.rev t.log)

let retransmissions t =
  List.fold_left (fun acc m -> if m.attempt > 1 then acc + 1 else acc) 0 t.log

let messages t = List.rev t.log
let message_count t = t.count

let concat ts =
  let merged = create () in
  List.iter
    (fun t ->
      List.iter
        (fun m -> push merged { m with seq = merged.count })
        (List.rev t.log))
    ts;
  merged

let total_tuples t =
  List.fold_left (fun acc m -> acc + Relation.cardinality m.data) 0 t.log

let total_bytes t = List.fold_left (fun acc m -> acc + wire_bytes m) 0 t.log

let traffic_matrix t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let key = (m.sender, m.receiver) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prev + wire_bytes m))
    t.log;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun ((a1, b1), _) ((a2, b2), _) ->
         match Server.compare a1 a2 with
         | 0 -> Server.compare b1 b2
         | c -> c)

let pp_delivery ppf = function
  | Delivered -> Fmt.string ppf "delivered"
  | Dropped -> Fmt.string ppf "dropped"
  | Corrupted -> Fmt.string ppf "corrupted"

let pp_message ppf m =
  let pp_fate ppf m =
    (* Silent for the common case so fault-free logs read as before. *)
    if m.attempt > 1 || m.delivery <> Delivered then
      Fmt.pf ppf " [attempt %d, %a]" m.attempt pp_delivery m.delivery
  in
  let pp_payload ppf m =
    match m.payload with
    | Rows -> ()
    | Filter { bits; hashes } ->
      Fmt.pf ppf " as a Bloom filter (%d bits, %d hashes)" bits hashes
  in
  Fmt.pf ppf "#%d %a -> %a: %d tuples, %d bytes (%s)%a%a %a" m.seq Server.pp
    m.sender Server.pp m.receiver
    (Relation.cardinality m.data)
    (wire_bytes m) m.note pp_payload m pp_fate m Profile.pp m.profile

let pp ppf t = Fmt.(list ~sep:(any "@\n") pp_message) ppf (messages t)
