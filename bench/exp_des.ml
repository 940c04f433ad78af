(* P3: the Section 6 latency decomposition — scheduling + waiting +
   execution time under a central scheduler, swept over load and
   contention. *)

let run_point syntax rate =
  Printf.printf "\n-- arrival rate %.2f (exec 1.0, sched 0.05) --\n" rate;
  List.iter
    (fun (name, mk) ->
      let r =
        Sim.Des.run
          { Sim.Des.arrival_rate = rate; exec_time = 1.0; sched_time = 0.05;
            seed = 99 }
          ~syntax ~scheduler:mk
      in
      Printf.printf "%-8s %s\n" name (Format.asprintf "%a" Sim.Des.pp_result r))
    (Sim.Measure.standard_suite syntax)

let run () =
  Tables.section "P3-latency-decomposition"
    "discrete-event model: latency = scheduling + waiting + execution";
  let st = Random.State.make [| 5 |] in
  let low = Sim.Workload.hotspot st ~n:20 ~m:3 ~n_vars:8 ~theta:0.15 in
  let hot = Sim.Workload.hotspot st ~n:20 ~m:3 ~n_vars:4 ~theta:0.8 in
  Printf.printf "LOW contention (8 variables, theta 0.15):\n";
  List.iter (run_point low) [ 0.2; 1.0; 2.0 ];
  Printf.printf "\nHIGH contention (4 variables, theta 0.8):\n";
  List.iter (run_point hot) [ 0.2; 1.0; 2.0 ];
  Printf.printf
    "\nshape: under low contention the concurrent schedulers (SGT, preclaim, \
     2PL up to rate 1.0) beat the serial scheduler as load grows — exactly the intro's argument \
     against the one-user-at-a-time strawman; under a hot spot everything \
     conflicts, waiting or restarts dominate, and serial execution is no \
     longer the bottleneck. Restart-based schedulers (SGT stall victims, \
     TO and SI/SSI on timestamp and write conflicts) trade waiting for \
     restarts: a restarted transaction's replays are decided back to back \
     and their executions overlap, so a restart shows as scheduling time and \
     a little execution time, not as a full re-run.\n"
