(* P2: the Section 6 performance model — zero-delay probability |P|/|H|
   and average delay/waiting/restarts per scheduler, swept over
   contention. *)

open Core

let sweep_point ~n ~m ~n_vars ~theta ~seed =
  let st = Random.State.make [| seed |] in
  let syntax =
    if n_vars = 1 then Examples.hot_spot n m
    else Sim.Workload.hotspot st ~n ~m ~n_vars ~theta
  in
  let rows =
    Sim.Measure.compare_schedulers
      (Sim.Measure.standard_suite syntax)
      ~fmt:(Syntax.format syntax) ~samples:400 ~seed:(seed + 1)
  in
  (syntax, rows)

let run () =
  Tables.section "P2-delay-simulation"
    "zero-delay probability and delays per scheduler (400 random histories \
     per point)";
  (* exact |P|/|H| on a small system first *)
  let syntax = Syntax.of_lists [ [ "v0"; "v1" ]; [ "v0" ]; [ "v1" ] ] in
  let fmt = Syntax.format syntax in
  Printf.printf "exact |P|/|H| on (v0 v1, v0, v1), |H| = %d:\n"
    (Schedule.count fmt);
  List.iter
    (fun (name, mk) ->
      if name <> "TO" then
        let p = List.length (Sched.Driver.fixpoint_of mk fmt) in
        Printf.printf "  %-8s |P| = %2d  |P|/|H| = %.3f\n" name p
          (Tables.ratio p (Schedule.count fmt)))
    (Sim.Measure.standard_suite syntax);
  (* contention sweep *)
  List.iter
    (fun (label, n, m, n_vars, theta) ->
      let syntax, rows = sweep_point ~n ~m ~n_vars ~theta ~seed:20 in
      Printf.printf "\n-- %s (vars %d, theta %.1f, |H| = %d) --\n" label
        n_vars theta
        (Schedule.count (Syntax.format syntax));
      Format.printf "%a" Sim.Measure.pp_rows rows)
    [
      ("low contention", 3, 2, 6, 0.1);
      ("medium contention", 3, 2, 3, 0.5);
      ("high contention (hot spot)", 3, 2, 1, 1.0);
      ("wider, medium", 4, 2, 4, 0.4);
    ];
  (* OCC needs semantics: run it on the counters filling *)
  let st = Random.State.make [| 77 |] in
  let syntax = Sim.Workload.hotspot st ~n:3 ~m:2 ~n_vars:3 ~theta:0.5 in
  let sys = Sim.Workload.counters syntax in
  let initial =
    Core.State.of_list
      (List.map (fun v -> (v, Expr.Value.Int 0)) (Core.Syntax.vars syntax))
  in
  let occ_row =
    Sim.Measure.sample ~name:"OCC"
      (fun () ->
        let sched, _, _ = Sched.Optimistic.create ~system:sys ~initial () in
        sched)
      ~fmt:(Core.Syntax.format syntax) ~samples:400 ~seed:5
  in
  Printf.printf "\nOCC (optimistic, counters semantics, medium contention):\n";
  Format.printf "%a" Sim.Measure.pp_rows [ occ_row ];
  Printf.printf
    "\nshape: SGT dominates the zero-delay column (it is the optimal \
     syntactic scheduler); 2PL' >= 2PL; preclaim sits near 2PL but never \
     deadlocks; serial is the floor; TO and OCC never delay and pay in \
     restarts instead.\n"
