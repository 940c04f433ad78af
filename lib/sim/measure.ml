open Core

type row = {
  name : string;
  zero_delay_fraction : float;
  avg_delays : float;
  avg_waiting : float;
  avg_restarts : float;
  avg_deadlocks : float;
  avg_grants : float;
  avg_sched_span : float;
  avg_wait_span : float;
  avg_exec_span : float;
}

let sample ~name mk ~fmt ~samples ~seed =
  if samples < 1 then
    invalid_arg (Printf.sprintf "samples must be at least 1, got %d" samples);
  let st = Random.State.make [| seed |] in
  let n = Array.length fmt in
  let zero = ref 0 in
  let delays = ref 0 and waiting = ref 0 in
  let restarts = ref 0 and deadlocks = ref 0 and grants = ref 0 in
  let sched_span = ref 0. and wait_span = ref 0. and exec_span = ref 0. in
  let collector = Obs.Sink.Memory.create () in
  for _ = 1 to samples do
    Obs.Sink.Memory.clear collector;
    let arrivals = Combin.Interleave.random st fmt in
    let s =
      Sched.Driver.run ~sink:(Obs.Sink.Memory.sink collector) (mk ()) ~fmt
        ~arrivals
    in
    if Sched.Driver.zero_delay s then incr zero;
    delays := !delays + s.Sched.Driver.delays;
    waiting := !waiting + s.Sched.Driver.waiting;
    restarts := !restarts + s.Sched.Driver.restarts;
    deadlocks := !deadlocks + s.Sched.Driver.deadlocks;
    grants := !grants + s.Sched.Driver.grants;
    let spans = Obs.Fold.spans ~n (Obs.Sink.Memory.events collector) in
    let t = Obs.Span.totals spans in
    sched_span := !sched_span +. t.Obs.Span.scheduling;
    wait_span := !wait_span +. t.Obs.Span.waiting;
    exec_span := !exec_span +. t.Obs.Span.execution
  done;
  let f x = float_of_int x /. float_of_int samples in
  let g x = x /. float_of_int samples in
  {
    name;
    zero_delay_fraction = f !zero;
    avg_delays = f !delays;
    avg_waiting = f !waiting;
    avg_restarts = f !restarts;
    avg_deadlocks = f !deadlocks;
    avg_grants = f !grants;
    avg_sched_span = g !sched_span;
    avg_wait_span = g !wait_span;
    avg_exec_span = g !exec_span;
  }

let compare_schedulers entries ~fmt ~samples ~seed =
  List.map (fun (name, mk) -> sample ~name mk ~fmt ~samples ~seed) entries

let standard_suite ?sink (syntax : Syntax.t) =
  List.map
    (fun e ->
      (e.Sched.Registry.name, fun () -> e.Sched.Registry.make ?sink syntax))
    Sched.Registry.standard

let pp_rows ppf rows =
  Format.fprintf ppf "%-8s %9s %8s %8s %9s %10s %8s %8s %8s %8s@."
    "sched" "zero-dly" "delays" "waiting" "restarts" "deadlocks" "grants"
    "t-sched" "t-wait" "t-exec";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-8s %9.3f %8.2f %8.2f %9.2f %10.2f %8.2f %8.2f %8.2f %8.2f@."
        r.name r.zero_delay_fraction r.avg_delays r.avg_waiting
        r.avg_restarts r.avg_deadlocks r.avg_grants r.avg_sched_span
        r.avg_wait_span r.avg_exec_span)
    rows
