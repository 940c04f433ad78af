(* ccopt — command-line multitool for the concurrency-control optimality
   library. This file is wiring: the bodies of [trace], [check] and
   [verify --twopc] are [Sim.Trace_run.command], [Sim.Check_fuzz.command]
   and [Sim.Check_fuzz.verify_twopc], functions from a request to stdout,
   stderr and an exit code. Every body returns its code to the one
   [exit] at the bottom.

     ccopt classify  --syntax "xy,yx"           fixpoint hierarchy
     ccopt herbrand  --syntax "xx,x" --schedule 010
     ccopt geometry  --syntax "xy,xy" --policy 2pl
     ccopt analyze   --syntax "xy,yx" --schedule 0101 [--policy 2pl] [--json]
     ccopt schedule  --syntax "xy,yx" --arrivals 0101 --scheduler sgt
     ccopt verify    [-k 2] [--twopc]           theorem micro-universes
     ccopt measure   --syntax "xy,yx" --samples 500
     ccopt bench     [--smoke] [--json] [--out BENCH_sched.json]
     ccopt trace     --syntax "xy,yx" --seed 42 [--out PREFIX] [--json]
     ccopt check     --syntax "xy,yx" --scheduler sgt --seed 42
                     | --schedule 0101 | --trace FILE.events  [--levels ..]
     ccopt check     --bench smoke|default [--json] [--out BENCH_check.json]
*)

open Core

(* ---------- subcommand bodies: each returns its exit code ---------- *)

let parse_syntax = Analysis.Analyze.parse_syntax
let parse_interleaving = Analysis.Analyze.parse_interleaving

let fail msg =
  prerr_endline msg;
  1

let emit { Sim.Trace_run.stdout; stderr; code } =
  print_string stdout;
  prerr_string stderr;
  code

let classify spec probes =
  let syntax = parse_syntax spec in
  let sys = Sim.Workload.counters syntax in
  let fmt = Syntax.format syntax in
  if Schedule.count fmt > 5000 then
    fail (Printf.sprintf "|H| = %d too large to enumerate" (Schedule.count fmt))
  else begin
    let probes = Weak_sr.default_probes ~seed:17 ~count:probes sys in
    let sets = Fixpoint.compute sys ~probes in
    let h, serial, sr, wsr, c = Fixpoint.counts sets in
    Printf.printf "|H| = %d  serial = %d  SR = %d  WSR = %d  C = %d  chain: %b\n"
      h serial sr wsr c (Fixpoint.chain_holds sets);
    Printf.printf "equivalence classes: %d (%d serializable)\n"
      (Equivalence.class_count syntax)
      (Equivalence.serializable_classes syntax);
    0
  end

let herbrand spec sched_spec =
  let syntax = parse_syntax spec in
  let h = Schedule.of_interleaving (parse_interleaving sched_spec) in
  if not (Schedule.is_schedule_of (Syntax.format syntax) h) then
    fail "not a schedule of the syntax"
  else begin
    Format.printf "schedule %a@." Schedule.pp h;
    Format.printf "herbrand state: %a@." Herbrand.pp_state
      (Herbrand.run syntax h);
    Format.printf "conflict-serializable: %b@." (Conflict.serializable syntax h);
    (match Herbrand.serialization_witness syntax h with
    | Some order ->
      Format.printf "equivalent serial order: %s@."
        (String.concat " " (List.map (fun i -> "T" ^ string_of_int (i + 1))
                              (Array.to_list order)))
    | None -> Format.printf "no equivalent serial order@.");
    0
  end

let geometry spec policy_name =
  let syntax = parse_syntax spec in
  if Syntax.n_transactions syntax <> 2 then
    fail "geometry needs exactly two transactions"
  else begin
    let policy = Analysis.Analyze.policy_of_name policy_name syntax in
    let locked = policy.Locking.Policy.apply syntax in
    print_endline (Locking.Render.figure locked);
    let g = Locking.Geometry.analyse locked in
    Printf.printf "blocks connected: %b\n" (Locking.Geometry.blocks_connected g);
    (match Locking.Geometry.common_point g with
    | Some (x, y) -> Printf.printf "common point: (%d,%d)\n" x y
    | None -> ());
    0
  end

let schedule_cmd spec arrivals_spec sched_name =
  let syntax = parse_syntax spec in
  let fmt = Syntax.format syntax in
  let arrivals = parse_interleaving arrivals_spec in
  match Sim.Trace_run.registry_entry sched_name with
  | Error msg -> fail msg
  | Ok _ when not (Combin.Interleave.is_valid fmt arrivals) ->
    fail
      (Printf.sprintf
         "ccopt: --arrivals %s is not an interleaving of the format (%s): \
          each transaction must arrive once per step"
         arrivals_spec
         (String.concat "," (Array.to_list (Array.map string_of_int fmt))))
  | Ok e ->
    let s = Sched.Driver.run (e.Sched.Registry.make syntax) ~fmt ~arrivals in
    Format.printf "output:    %a@." Schedule.pp s.Sched.Driver.output;
    Printf.printf
      "delays %d, restarts %d, deadlocks %d, waiting %d, zero-delay %b\n"
      s.Sched.Driver.delays s.Sched.Driver.restarts s.Sched.Driver.deadlocks
      s.Sched.Driver.waiting (Sched.Driver.zero_delay s);
    0

let verify k twopc =
  if twopc then emit (Sim.Check_fuzz.verify_twopc ())
  else begin
    let r2 =
      Optimality.Verify.theorem2_report ~k ~fmt:[| 2; 1 |] ~vars:[ "x" ]
    in
    Format.printf "Theorem 2 (format (2,1), Z%d):@.%a@.@." k
      Optimality.Verify.pp_report r2;
    let syntax = parse_syntax "xy,yx" in
    let r3 = Optimality.Verify.theorem3_report ~k syntax in
    Format.printf "Theorem 3 (syntax xy,yx, Z%d):@.%a@." k
      Optimality.Verify.pp_report r3;
    0
  end

let analyze spec sched_spec policy_name certify_name k json =
  let syntax = parse_syntax spec in
  let req =
    Analysis.Analyze.request
      ?schedule:(Option.map parse_interleaving sched_spec)
      ?policy:policy_name ?certify:certify_name ~k syntax
  in
  let report = Analysis.Analyze.run req in
  if json then print_endline (Analysis.Report.to_json report)
  else Format.printf "%a@." Analysis.Report.pp report;
  (* linter convention: error diagnostics fail the invocation *)
  if Analysis.Report.errors report > 0 then 1 else 0

let measure spec samples =
  let syntax = parse_syntax spec in
  let rows =
    Sim.Measure.compare_schedulers
      (Sim.Measure.standard_suite syntax)
      ~fmt:(Syntax.format syntax) ~samples ~seed:1
  in
  Format.printf "%a" Sim.Measure.pp_rows rows;
  0

let bench smoke json out =
  let module B = Sim.Sched_bench in
  let spec = if smoke then B.smoke else B.default in
  let report = B.run spec in
  emit
    (Sim.Trace_run.output_report ~what:"bench" out
       (if json then `Json (B.to_json spec report)
        else `Text (Format.asprintf "%a" B.pp report)))

(* ---------- cmdliner wiring ---------- *)

open Cmdliner

(* Each flag is defined once; a parameter carries what differs between
   the commands that take it (default, doc, required or not). *)
let syntax_opt =
  Arg.(
    opt (some string) None
    & info [ "syntax"; "s" ] ~docv:"SPEC"
        ~doc:"Transactions as comma-separated variable strings (xy,yx).")

let syntax_arg = Arg.required syntax_opt
let opt_flag name ?docv c default doc =
  Arg.value (Arg.opt c default (Arg.info [ name ] ?docv ~doc))
let flag name doc = Arg.value (Arg.flag (Arg.info [ name ] ~doc))
let schedule req doc =
  req Arg.(opt (some string) None & info [ "schedule" ] ~docv:"DIGITS" ~doc)
let scheduler ?docv c default doc = opt_flag "scheduler" ?docv c default doc
let policy c default doc = opt_flag "policy" c default doc
let seed = opt_flag "seed" Arg.int
let capacity = opt_flag "capacity" Arg.int
let samples = opt_flag "samples" Arg.int
let k = opt_flag "k" Arg.int 2
let out docv doc = opt_flag "out" ~docv Arg.(some string) None doc
let json = flag "json"
let names l = String.concat ", " l
let registry_names = names Sched.Registry.names

let classify_cmd =
  Cmd.v
    (Cmd.info "classify" ~doc:"fixpoint-set hierarchy of a system")
    Term.(
      const classify $ syntax_arg
      $ opt_flag "probes" Arg.int 12 "Probe states for WSR/C.")

let herbrand_cmd =
  Cmd.v
    (Cmd.info "herbrand" ~doc:"symbolic execution and serializability")
    Term.(
      const herbrand $ syntax_arg
      $ schedule Arg.required "Interleaving as transaction indices, e.g. 010.")

let geometry_cmd =
  Cmd.v
    (Cmd.info "geometry" ~doc:"progress-space figure for two transactions")
    Term.(
      const geometry $ syntax_arg
      $ policy Arg.string "2pl" "2pl, 2pl', preclaim or mutex.")

let schedule_run_cmd =
  let arrivals =
    Arg.(
      required
      & opt (some string) None
      & info [ "arrivals" ] ~docv:"DIGITS" ~doc:"Request stream, e.g. 0101.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"drive an online scheduler over a stream")
    Term.(
      const schedule_cmd $ syntax_arg $ arrivals
      $ scheduler Arg.string "sgt" ("One of " ^ registry_names ^ "."))

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"static anomaly detection, lock-policy linting, scheduler \
             certification")
    Term.(
      const analyze $ syntax_arg
      $ schedule Arg.value "Schedule to run the anomaly detector on, e.g. 0101."
      $ policy Arg.(some string) None
          "Locking policy to lint: 2pl, 2pl', preclaim or mutex."
      (* the certifier resolves names through the registry; derive the doc
         from it so help text cannot drift from the name table *)
      $ opt_flag "certify" Arg.(some string) None
          ("Scheduler to certify against Theorem 1: one of " ^ registry_names
         ^ ".")
      $ k "Micro-universe domain size for --certify."
      $ json "Emit the report as JSON.")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"exhaustive micro-universe checks (KP theorems; --twopc for \
             atomic commitment)")
    Term.(
      const verify $ k "Domain size Z_k."
      $ flag "twopc"
          "Verify the distributed-commit layer instead: AC1-AC5 over the \
           exhaustive single-fault micro-universes and a fixed-seed \
           crash/slow-link fault matrix; exit 1 on any violation, with a \
           replayable witness on stderr.")

let measure_cmd =
  let standard =
    List.map (fun e -> e.Sched.Registry.slug) Sched.Registry.standard
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:
         ("scheduler delay comparison over the standard suite ("
         ^ names standard ^ ")"))
    Term.(const measure $ syntax_arg $ samples 500 "Random histories.")

let bench_cmd =
  Cmd.v
    (Cmd.info "bench"
       ~doc:"scheduler micro-benchmark (requests/sec, incl. SGT vs SGT-ref, \
             sharded vs monolithic SGT, the multi-version and \
             commutativity admission tables, the parallel wall-clock \
             engine sweep and the distributed-commit section)")
    Term.(
      const bench
      $ flag "smoke"
          "Tiny single-pass run of every section (the CI smoke) instead of \
           the full run."
      $ json "Emit BENCH_sched.json schema."
      $ out "FILE" "Write the report to a file.")

let trace_cmd =
  let trace label only seed capacity samples json out =
    let syntax = parse_syntax label in
    let only = Option.fold ~none:[] ~some:(String.split_on_char ',') only in
    let only = List.filter (fun s -> s <> "") only in
    let spec = { Sim.Trace_run.label; syntax; seed; capacity; samples; only } in
    emit (Sim.Trace_run.command { spec; out; json })
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"record a request-lifecycle trace and the Section 6 time \
             decomposition")
    Term.(
      const trace $ syntax_arg
      $ scheduler ~docv:"NAMES" Arg.(some string) None
          ("Comma-separated registered schedulers (" ^ registry_names
         ^ "); default: the standard suite.")
      $ seed 42 "Arrival-stream seed."
      $ capacity Sim.Trace_run.default_capacity
          "Ring-buffer capacity per scheduler."
      $ samples 200 "Monte-Carlo samples for the zero-delay fraction."
      $ json "Emit the summary as JSON."
      $ out "PREFIX"
          "Write one Chrome trace per scheduler to PREFIX-<scheduler>.json \
           (load in about://tracing or Perfetto).")

let check_cmd =
  let d = Sim.Check_fuzz.defaults in
  let check syntax schedule scheduler seed capacity trace levels mutate budget
      bench out json =
    emit
      (Sim.Check_fuzz.command
         { syntax; schedule; scheduler; seed; capacity; trace; levels; mutate;
           budget; bench; out; json })
  in
  let sizes =
    [ ("smoke", Sim.Check_bench.smoke); ("default", Sim.Check_bench.default) ]
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"black-box history consistency checker: decide rc / ra / causal \
             / si / ser over a schedule, a scheduler run or a recorded \
             trace (exit 1 on violation)")
    Term.(
      const check
      (* optional here: --bench needs no syntax *)
      $ Arg.value syntax_opt
      $ schedule Arg.value "Check this interleaving of the syntax directly."
      $ scheduler Arg.string d.scheduler
          ("Scheduler to re-run and check (one of " ^ registry_names
         ^ "); ignored when --schedule or --trace is given.")
      $ seed d.seed "Arrival-stream (and --mutate site) seed."
      $ capacity d.capacity "Ring-buffer capacity for --scheduler runs."
      $ opt_flag "trace" ~docv:"FILE" Arg.(some string) d.trace
          "Check a recorded event log (ccopt trace --out writes \
           PREFIX-<scheduler>.events)."
      $ opt_flag "levels" ~docv:"L,.." Arg.(some string) d.levels
          ("Comma-separated subset of "
          ^ names (List.map Analysis.Checker.level_name Analysis.Checker.levels)
          ^ " (default: all, except --scheduler runs, which default to the \
             ladder up to the engine's declared level).")
      $ opt_flag "mutate" ~docv:"KIND" Arg.(some string) d.mutate
          ("Corrupt the history first ("
          ^ names
              (List.map Analysis.History.mutation_name Analysis.History.mutations)
          ^ ") — the checker must then reject it.")
      $ opt_flag "budget" Arg.int d.budget
          "Search-state budget for the SER/SI decision; exceeding it yields \
           an unknown verdict, never a guess."
      $ opt_flag "bench" ~docv:"SIZE" Arg.(some (enum sizes)) d.bench
          "Throughput mode: check a generated serializable history and \
           report events/sec per level. SIZE is smoke or default (1M events \
           — the committed BENCH_check.json configuration)."
      $ out "FILE"
          "Write the --bench report to a file (with --json, foreign \
           top-level keys of an existing file are preserved)."
      $ json "Emit the verdicts as JSON.")

(* The one exit. Malformed flags, unknown subcommands and term errors
   exit 2, not cmdliner's default 124. *)
let () =
  let doc = "concurrency-control optimality toolbox (Kung-Papadimitriou 1979)" in
  exit
    (try
       match
         Cmd.eval_value ~catch:false
           (Cmd.group (Cmd.info "ccopt" ~doc)
              [
                classify_cmd; herbrand_cmd; geometry_cmd; analyze_cmd;
                schedule_run_cmd; verify_cmd; measure_cmd; bench_cmd;
                trace_cmd; check_cmd;
              ])
       with
       | Ok (`Ok code) -> code
       | Ok (`Version | `Help) -> 0
       | Error (`Parse | `Term) -> 2
       | Error `Exn -> Cmd.Exit.internal_error
     with
     | Invalid_argument msg ->
       Printf.eprintf "ccopt: %s\n" msg;
       2
     | Sched.Driver.Stall msg ->
       Printf.eprintf "ccopt: %s\n" msg;
       1)
