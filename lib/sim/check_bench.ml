module History = Analysis.History
module Checker = Analysis.Checker

type spec = {
  txns : int;
  steps : int;
  n_vars : int;
  seed : int;
  levels : Checker.level list;
}

type row = {
  level : string;
  events : int;
  seconds : float;
  events_per_sec : float;
}

let default =
  {
    txns = 125_000;
    steps = 4;
    n_vars = 40_000;
    seed = 1;
    levels = Checker.levels;
  }

let smoke = { default with txns = 2_000; steps = 2; n_vars = 500 }

(* Both presets spread their transactions over the same sessions. *)
let sessions = 8

let run spec =
  let h =
    History.generate ~seed:spec.seed ~sessions ~txns:spec.txns
      ~steps:spec.steps ~n_vars:spec.n_vars
  in
  let events = History.n_events h in
  List.filter_map
    (fun level ->
      if not (List.mem level spec.levels) then None
      else begin
        let t0 = Unix.gettimeofday () in
        let r = Checker.check h level in
        let seconds = Unix.gettimeofday () -. t0 in
        (match r.Checker.verdict with
        | Checker.Consistent _ -> ()
        | Checker.Violation _ ->
          failwith
            ("check bench: generated history rejected at "
            ^ Checker.level_name level)
        | Checker.Unknown msg ->
          failwith
            ("check bench: generated history unknown at "
            ^ Checker.level_name level ^ ": " ^ msg));
        Some
          {
            level = Checker.level_name level;
            events;
            seconds;
            events_per_sec =
              (if seconds > 0. then float_of_int events /. seconds else 0.);
          }
      end)
    Checker.levels

let to_json spec rows =
  let module J = Obs.Json in
  let line kvs = J.Line (J.Obj kvs) in
  J.Obj
    [
      ("schema_version", J.int Analysis.Report.schema_version);
      ("benchmark", J.Str "ccopt check throughput");
      ("unit", J.Str "events/sec");
      ( "config",
        line
          [
            ("txns", J.int spec.txns);
            ("steps", J.int spec.steps);
            ("sessions", J.int sessions);
            ("n_vars", J.int spec.n_vars);
            ("seed", J.int spec.seed);
          ] );
      ( "results",
        J.Arr
          (List.map
             (fun r ->
               line
                 [
                   ("level", J.Str r.level);
                   ("events", J.int r.events);
                   ("seconds", J.num "%.3f" r.seconds);
                   ("events_per_sec", J.num "%.0f" r.events_per_sec);
                 ])
             rows) );
    ]

let pp_rows fmt rows =
  Format.fprintf fmt "%-8s %12s %9s %14s@." "level" "events" "seconds"
    "events/sec";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8s %12d %9.3f %14.0f@." r.level r.events
        r.seconds r.events_per_sec)
    rows
