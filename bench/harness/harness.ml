let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let r = Sys.opaque_identity (f ()) in
  (r, now () -. t0)

let best_of f =
  let rec go i (r, best) =
    if i >= 3 then (r, best)
    else
      let r, dt = time f in
      go (i + 1) (r, Float.min best dt)
  in
  go 1 (time f)

let per_call f =
  let batch n =
    snd
      (time (fun () ->
           for _ = 1 to n do
             ignore (Sys.opaque_identity (f ()))
           done))
  in
  let rec size n =
    if n >= 1 lsl 20 || batch n >= 1e-3 then n else size (2 * n)
  in
  let n = size 1 in
  fun () -> batch n /. float_of_int n

let median l = List.nth (List.sort Float.compare l) (List.length l / 2)

(* Failed checks in the whole run, and in the running job: a job
   with a failure writes no JSON. *)
let failed = ref 0
let job_failed = ref 0

let fail fmt =
  Fmt.kstr
    (fun msg ->
      incr failed;
      incr job_failed;
      Fmt.epr "%s@." msg)
    fmt

let check ok fmt =
  if ok then Format.ikfprintf ignore Format.std_formatter fmt else fail fmt

let failures () = !failed

let write_json file ~bench ?(header = []) entries =
  if !job_failed > 0 then
    Fmt.pr "%s not written: %d failed check(s)@." file !job_failed
  else begin
    Out_channel.with_open_text file (fun oc ->
        Printf.fprintf oc {|{"bench":"%s"%s,"entries":[%s]}|} bench
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf {|,"%s":%d|} k v) header))
          (String.concat "," entries);
        output_char oc '\n');
    Fmt.pr "%s: %d entries -> %s@." bench (List.length entries) file
  end

type arg =
  | Word of string * bool ref
  | Count of string * int ref

let parse table args =
  let named a = function Word (n, _) | Count (n, _) -> n = a in
  let rec go = function
    | [] -> Ok ()
    | a :: rest -> (
      match (List.find_opt (named a) table, rest) with
      | Some (Word (_, r)), _ ->
        r := true;
        go rest
      | Some (Count (_, r)), v :: rest when int_of_string_opt v <> None ->
        r := int_of_string v;
        go rest
      | Some (Count _), _ -> Error (a ^ " expects an integer")
      | None, _ -> Error ("unknown argument " ^ a))
  in
  go args

let parse_argv ~prog table =
  match parse table (List.tl (Array.to_list Sys.argv)) with
  | Ok () -> ()
  | Error msg ->
    Fmt.epr "%s: %s@." prog msg;
    exit 2

let run ~prog jobs =
  failed := 0;
  List.iter
    (fun (name, job) ->
      job_failed := 0;
      try job ()
      with e -> fail "%s: %s raised %s" prog name (Printexc.to_string e))
    jobs;
  if !failed = 0 then begin
    Fmt.pr "%s: all checks passed@." prog;
    0
  end
  else begin
    Fmt.pr "%s: %d FAILURES@." prog !failed;
    1
  end
