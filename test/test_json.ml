(* Byte-identity of the machine-readable reports. Each expectation file
   holds the exact output of one [ccopt] invocation (named above each
   case); the reports are rebuilt in-process the way the CLI builds
   them and compared byte for byte, so any change to an emitter's keys,
   order, number formats, escaping or layout shows up here. *)

open Core

let expected name =
  (* dune runtest runs inside test/; dune exec from the root *)
  let path = if Sys.file_exists name then name else Filename.concat "test" name in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden name got = Alcotest.(check string) name (expected name) got

(* ccopt check --syntax S --schedule DIGITS --json *)
let check_schedule spec digits =
  let syntax = Analysis.Analyze.parse_syntax spec in
  let h = Schedule.of_interleaving (Analysis.Analyze.parse_interleaving digits) in
  let hist =
    Analysis.History.of_schedule ~label:(spec ^ " @ " ^ digits) syntax h
  in
  Analysis.Checker.to_json ~source:("schedule " ^ digits) hist
    (Analysis.Checker.check_all hist)
  ^ "\n"

(* ccopt check --syntax S --scheduler sgt --seed N [--budget B] --json *)
let check_sgt ?budget spec seed =
  let syntax = Analysis.Analyze.parse_syntax spec in
  let fmt = Syntax.format syntax in
  let ring = Obs.Sink.Ring.create ~capacity:Sim.Trace_run.default_capacity in
  let sink = Obs.Sink.Ring.sink ring in
  let e = Sched.Registry.find_exn "sgt" in
  let arrivals = Combin.Interleave.random (Random.State.make [| seed |]) fmt in
  ignore (Sched.Driver.run ~sink (e.Sched.Registry.make ~sink syntax) ~fmt ~arrivals);
  let hist =
    Sim.Check_fuzz.history_of_events
      ~label:(Printf.sprintf "%s via sgt (seed %d)" spec seed)
      ~complete:(Obs.Sink.Ring.dropped ring = 0)
      syntax (Obs.Sink.Ring.events ring)
  in
  Analysis.Checker.to_json ~source:"scheduler sgt" hist
    (Analysis.Checker.check_all ?budget hist)
  ^ "\n"

let test_check () =
  golden "json_check_violation.expected" (check_schedule "xy,yx" "0101");
  golden "json_check_consistent.expected" (check_sgt "xy,yx" 42);
  golden "json_check_unknown.expected" (check_sgt ~budget:1 "xyz,zx,yz" 42)

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

let trace_spec ?(only = []) label seed =
  {
    Sim.Trace_run.label;
    syntax = Analysis.Analyze.parse_syntax label;
    seed;
    capacity = Sim.Trace_run.default_capacity;
    samples = 200;
    only;
  }

(* ccopt trace --syntax xy,yx --seed 42 --json *)
let test_trace_summary () =
  let sp = trace_spec "xy,yx" 42 in
  golden "json_trace.expected"
    (Sim.Trace_run.json_summary sp (Sim.Trace_run.execute sp) ^ "\n")

(* ccopt trace --syntax xxy,yx,xyy --seed 7 --scheduler 2pl --out P:
   the P-2pl.json Chrome trace and its P-2pl.events twin *)
let test_trace_files () =
  match Sim.Trace_run.execute (trace_spec ~only:[ "2pl" ] "xxy,yx,xyy" 7) with
  | [ r ] ->
    golden "json_trace_2pl_chrome.expected" r.Sim.Trace_run.chrome;
    golden "json_trace_2pl_events.expected"
      (Obs.Event_log.to_string ~dropped:r.Sim.Trace_run.dropped
         r.Sim.Trace_run.events)
  | _ -> Alcotest.fail "one scheduler selected"

let suite =
  [
    Alcotest.test_case "check --json goldens" `Quick test_check;
    Alcotest.test_case "analyze --json golden" `Quick test_analyze;
    Alcotest.test_case "trace --json golden" `Quick test_trace_summary;
    Alcotest.test_case "Chrome trace and event log goldens" `Quick
      test_trace_files;
  ]
