open Relalg
open Distsim
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let sample_relation () = Option.get (M.instances "Insurance")

let sample_network () =
  let n = Network.create () in
  let r = sample_relation () in
  let p = Authz.Profile.of_base M.insurance in
  let (_ : Relation.t) =
    Network.send n ~sender:M.s_i ~receiver:M.s_n ~profile:p ~purpose:(Network.Full_operand { join = 0 }) ~note:"first" r
  in
  let (_ : Relation.t) =
    Network.send n ~sender:M.s_i ~receiver:M.s_n ~profile:p ~purpose:(Network.Full_operand { join = 0 }) ~note:"second" r
  in
  let (_ : Relation.t) =
    Network.send n ~sender:M.s_n ~receiver:M.s_h ~profile:p ~purpose:(Network.Full_operand { join = 0 }) ~note:"third" r
  in
  n

let test_send_returns_data () =
  let n = Network.create () in
  let r = sample_relation () in
  let returned =
    Network.send n ~sender:M.s_i ~receiver:M.s_n
      ~profile:(Authz.Profile.of_base M.insurance) ~purpose:(Network.Full_operand { join = 0 }) ~note:"x" r
  in
  check Helpers.relation "unchanged" r returned

let test_message_order () =
  let n = sample_network () in
  let notes = List.map (fun m -> m.Network.note) (Network.messages n) in
  check Alcotest.(list string) "send order" [ "first"; "second"; "third" ] notes;
  let seqs = List.map (fun m -> m.Network.seq) (Network.messages n) in
  check Alcotest.(list int) "sequence numbers" [ 0; 1; 2 ] seqs

let test_counters () =
  let n = sample_network () in
  let r = sample_relation () in
  check Alcotest.int "count" 3 (Network.message_count n);
  check Alcotest.int "tuples" (3 * Relation.cardinality r)
    (Network.total_tuples n);
  check Alcotest.int "bytes" (3 * Relation.byte_size r)
    (Network.total_bytes n)

let test_traffic_matrix () =
  let n = sample_network () in
  let r = sample_relation () in
  let matrix = Network.traffic_matrix n in
  check Alcotest.int "two pairs" 2 (List.length matrix);
  match matrix with
  | [ ((a1, b1), bytes1); ((a2, b2), bytes2) ] ->
    check Helpers.server "S_I first" M.s_i a1;
    check Helpers.server "to S_N" M.s_n b1;
    check Alcotest.int "double traffic" (2 * Relation.byte_size r) bytes1;
    check Helpers.server "S_N second" M.s_n a2;
    check Helpers.server "to S_H" M.s_h b2;
    check Alcotest.int "single traffic" (Relation.byte_size r) bytes2
  | _ -> Alcotest.fail "unexpected matrix shape"

let test_empty () =
  let n = Network.create () in
  check Alcotest.int "no messages" 0 (Network.message_count n);
  check Alcotest.int "no bytes" 0 (Network.total_bytes n);
  check Alcotest.int "empty matrix" 0 (List.length (Network.traffic_matrix n))

(* A merged log numbers its messages 0, 1, ... in order, and the kept
   count agrees with the messages at every step. *)
let test_concat_numbering () =
  let a = sample_network () and b = sample_network () in
  let merged = Network.concat [ a; Network.create (); b ] in
  check Alcotest.(list int) "renumbered" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun m -> m.Network.seq) (Network.messages merged));
  check Alcotest.(list string) "in order"
    [ "first"; "second"; "third"; "first"; "second"; "third" ]
    (List.map (fun m -> m.Network.note) (Network.messages merged));
  check Alcotest.int "count" 6 (Network.message_count merged);
  check Alcotest.(list int) "sources untouched" [ 0; 1; 2 ]
    (List.map (fun m -> m.Network.seq) (Network.messages b));
  let r = sample_relation () in
  let (_ : Relation.t) =
    Network.send merged ~sender:M.s_h ~receiver:M.s_i
      ~profile:(Authz.Profile.of_base M.insurance)
      ~purpose:(Network.Full_operand { join = 0 }) ~note:"after" r
  in
  check Alcotest.int "next seq" 6
    (List.nth (Network.messages merged) 6).Network.seq;
  check Alcotest.int "count follows" 7 (Network.message_count merged)

let suite =
  [
    c "send returns the data" `Quick test_send_returns_data;
    c "messages keep send order" `Quick test_message_order;
    c "counters" `Quick test_counters;
    c "traffic matrix" `Quick test_traffic_matrix;
    c "empty network" `Quick test_empty;
    c "concat renumbers, count follows" `Quick test_concat_numbering;
  ]
