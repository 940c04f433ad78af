(* Byte-identity of the machine-readable reports. Each expectation file
   holds the exact output of one [ccopt] invocation (named above each
   case). The check and trace reports come from the functions the CLI
   itself calls ([Sim.Check_fuzz.command], [Sim.Trace_run.command])
   with the request its flags build, so the goldens pin the tool, exit
   code included; any change to an emitter's keys, order, number
   formats, escaping or layout shows up here. *)

let expected name =
  (* dune runtest runs inside test/; dune exec from the root *)
  let path = if Sys.file_exists name then name else Filename.concat "test" name in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden name got = Alcotest.(check string) name (expected name) got

let check ?(syntax = "xyz,zx,yz") f =
  Sim.Check_fuzz.command (f { Sim.Check_fuzz.defaults with syntax = Some syntax })

(* the stdout of a reply, with its exit code checked *)
let stdout code (r : Sim.Trace_run.reply) =
  Alcotest.(check int) "exit code" code r.code;
  Alcotest.(check string) "stderr" "" r.stderr;
  r.stdout

let test_check () =
  (* ccopt check --syntax xy,yx --schedule 0101 --json *)
  golden "json_check_violation.expected"
    (stdout 1
       (check ~syntax:"xy,yx" (fun r ->
            { r with schedule = Some "0101"; json = true })));
  (* ccopt check --syntax xy,yx --scheduler sgt --seed 42 --json *)
  golden "json_check_consistent.expected"
    (stdout 0 (check ~syntax:"xy,yx" (fun r -> { r with json = true })));
  (* ccopt check --syntax xyz,zx,yz --scheduler sgt --seed 42 --budget 1
     --json *)
  golden "json_check_unknown.expected"
    (stdout 0 (check (fun r -> { r with budget = 1; json = true })))

let trace ?(only = []) ?out label seed =
  let spec =
    { Sim.Trace_run.label; syntax = Analysis.Analyze.parse_syntax label; seed;
      capacity = Sim.Trace_run.default_capacity; samples = 200; only }
  in
  Sim.Trace_run.command { spec; out; json = out = None }

(* Every usage error of [ccopt check] exits 1 with its message, and a
   well-formed request exits 0; so does an unwritable --out of [ccopt
   trace], [ccopt bench] and [ccopt check --bench], writing no file. *)
let test_check_usage_errors () =
  let fails name needle (r : Sim.Trace_run.reply) =
    Alcotest.(check int) (name ^ ": exit code") 1 r.code;
    Alcotest.(check string) (name ^ ": stdout") "" r.stdout;
    if not (Util.contains r.stderr needle) then
      Alcotest.failf "%s: stderr %S lacks %S" name r.stderr needle
  in
  fails "unknown scheduler"
    ("ccopt: unknown scheduler nope (have: "
    ^ String.concat ", " Sched.Registry.names ^ ")")
    (check (fun r -> { r with scheduler = "nope" }));
  fails "unknown level"
    "ccopt check: unknown level nope (have: rc, ra, causal, si, ser)"
    (check (fun r -> { r with levels = Some "rc,nope" }));
  fails "unknown mutation" "ccopt check: unknown mutation nope (have: "
    (check (fun r -> { r with mutate = Some "nope" }));
  fails "missing --syntax" "ccopt check: --syntax is required (unless --bench)"
    (Sim.Check_fuzz.command Sim.Check_fuzz.defaults);
  fails "unreadable --trace" "ccopt check: no-such-dir/x.events"
    (check (fun r -> { r with trace = Some "no-such-dir/x.events" }));
  let garbage = Filename.temp_file "ccopt-check" ".events" in
  Out_channel.with_open_bin garbage (fun oc -> output_string oc "garbage\n");
  fails "malformed --trace" ("ccopt check: " ^ garbage ^ ": ")
    (check (fun r -> { r with trace = Some garbage }));
  Sys.remove garbage;
  fails "schedule of another syntax" "ccopt check: not a schedule of the syntax"
    (check (fun r -> { r with schedule = Some "0101" }));
  (* ccopt trace --syntax xy,yx --out no-such-dir/p *)
  fails "unwritable trace --out"
    "ccopt: cannot write no-such-dir/p-serial.json: "
    (trace ~out:"no-such-dir/p" "xy,yx" 42);
  (* ccopt bench --json --out no-such-dir/b.json *)
  fails "unwritable report --out" "ccopt: cannot write no-such-dir/b.json: "
    (Sim.Trace_run.output_report ~what:"bench" (Some "no-such-dir/b.json")
       (`Json (Obs.Json.Obj [])));
  Alcotest.(check bool) "no file written" false (Sys.file_exists "no-such-dir");
  (* ccopt check --syntax xyz,zx,yz --scheduler sgt --seed 42 *)
  ignore (stdout 0 (check (fun r -> r)) : string)

(* ccopt analyze --syntax xy,yx --schedule 0101 --policy 2pl --json *)
let test_analyze () =
  let req =
    Analysis.Analyze.request
      ~schedule:(Analysis.Analyze.parse_interleaving "0101")
      ~policy:"2pl" ~k:2
      (Analysis.Analyze.parse_syntax "xy,yx")
  in
  golden "json_analyze.expected"
    (Analysis.Report.to_json (Analysis.Analyze.run req) ^ "\n")

(* ccopt trace --syntax xy,yx --seed 42 --json *)
let test_trace_summary () =
  golden "json_trace.expected" (stdout 0 (trace "xy,yx" 42))

(* ccopt trace --syntax xxy,yx,xyy --seed 7 --scheduler 2pl --out P:
   the P-2pl.json Chrome trace and its P-2pl.events twin *)
let test_trace_files () =
  let prefix = Filename.temp_file "ccopt-trace" "" in
  let file ext = prefix ^ "-2pl" ^ ext in
  let out = stdout 0 (trace ~only:[ "2pl" ] ~out:prefix "xxy,yx,xyy" 7) in
  let got ext =
    let s = In_channel.with_open_bin (file ext) In_channel.input_all in
    Sys.remove (file ext);
    s
  in
  let chrome = got ".json" and events = got ".events" in
  Sys.remove prefix;
  Alcotest.(check bool) "says what it wrote" true
    (Util.contains out ("wrote " ^ file ".json\nwrote " ^ file ".events\n"));
  golden "json_trace_2pl_chrome.expected" chrome;
  golden "json_trace_2pl_events.expected" events

let suite =
  [
    Alcotest.test_case "check --json goldens" `Quick test_check;
    Alcotest.test_case "check usage errors exit 1" `Quick
      test_check_usage_errors;
    Alcotest.test_case "analyze --json golden" `Quick test_analyze;
    Alcotest.test_case "trace --json golden" `Quick test_trace_summary;
    Alcotest.test_case "Chrome trace and event log goldens" `Quick
      test_trace_files;
  ]
