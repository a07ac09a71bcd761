(* The bench/soak harness: argument table, failure accounting and the
   BENCH_*.json envelope. *)

let c = Alcotest.test_case
let check = Alcotest.check

let rejected what table args =
  check Alcotest.bool what true (Result.is_error (Harness.parse table args))

let test_arguments () =
  let quick = ref false and chase = ref false and cases = ref 7 in
  let table =
    Harness.
      [ Word ("quick", quick); Word ("chase", chase); Count ("--cases", cases) ]
  in
  check Alcotest.bool "known arguments" true
    (Harness.parse table [ "chase"; "--cases"; "12" ] = Ok ());
  check Alcotest.(pair bool bool) "words" (false, true) (!quick, !chase);
  check Alcotest.int "budget" 12 !cases;
  rejected "unknown word" table [ "chase"; "chaos" ];
  rejected "unknown budget" table [ "--faults-cases"; "3" ];
  rejected "budget without a value" table [ "--cases" ];
  rejected "budget with a non-integer" table [ "--cases"; "many" ];
  rejected "a word is not a budget" table [ "quick"; "3" ]

(* Runs [f] in a fresh directory, removed afterwards with its files. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "harness" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Array.iter
        (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    f

let test_failure_accounting () =
  in_temp_dir (fun () ->
      let later = ref false and next_job = ref false in
      let status =
        Harness.run ~prog:"harness-test"
          [
            ( "failing",
              fun () ->
                Harness.check (1 + 1 = 3) "arithmetic drifted at %d" 2;
                later := true;
                Harness.write_json "FAILING.json" ~bench:"failing" [ "{}" ] );
            ( "passing",
              fun () ->
                next_job := true;
                Harness.check true "never printed";
                Harness.write_json "PASSING.json" ~bench:"passing" [ "{}" ] );
            ("raising", fun () -> failwith "escaped");
          ]
      in
      check Alcotest.int "exit status" 1 status;
      check Alcotest.int "failed check and escaped exception counted" 2
        (Harness.failures ());
      check Alcotest.bool "later checks of the job ran" true !later;
      check Alcotest.bool "later jobs ran" true !next_job;
      check Alcotest.bool "the failing job wrote no JSON" false
        (Sys.file_exists "FAILING.json");
      check Alcotest.bool "the passing job wrote its JSON" true
        (Sys.file_exists "PASSING.json");
      check Alcotest.int "a clean run exits 0" 0
        (Harness.run ~prog:"harness-test" [ ("clean", fun () -> ()) ]);
      check Alcotest.int "a clean run resets the count" 0 (Harness.failures ()))

let test_json_envelope () =
  in_temp_dir (fun () ->
      let module J = Analysis.Json in
      let entries =
        [ {|{"kind":"a","n":1,"x":0.250}|}; {|{"kind":"b","n":2,"x":1.500}|} ]
      in
      ignore
        (Harness.run ~prog:"harness-test"
           [
             ( "envelope",
               fun () ->
                 Harness.write_json "BENCH_t.json" ~bench:"envelope-test"
                   ~header:[ ("seeds", 120); ("budget", 9) ]
                   entries );
           ]);
      let text = In_channel.with_open_bin "BENCH_t.json" In_channel.input_all in
      check Alcotest.string "envelope"
        ({|{"bench":"envelope-test","seeds":120,"budget":9,"entries":[|}
        ^ String.concat "," entries ^ "]}\n")
        text;
      match J.parse text with
      | Error msg -> Alcotest.fail msg
      | Ok v ->
        let field name conv = Option.bind (J.member name v) conv in
        check Alcotest.(option string) "bench" (Some "envelope-test")
          (field "bench" J.to_str);
        check Alcotest.(option int) "seeds" (Some 120) (field "seeds" J.to_int);
        check Alcotest.(option int) "budget" (Some 9) (field "budget" J.to_int);
        let json = Alcotest.testable (Fmt.of_to_string J.to_string) ( = ) in
        check
          Alcotest.(option (list json))
          "entries"
          (Some (List.map (fun e -> Result.get_ok (J.parse e)) entries))
          (field "entries" J.to_list))

let suite =
  [
    c "argument table" `Quick test_arguments;
    c "failure accounting" `Quick test_failure_accounting;
    c "JSON envelope" `Quick test_json_envelope;
  ]
