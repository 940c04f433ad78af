(* S1: analyzer throughput (Bechamel timing).

   Cost of the static passes: the anomaly detector (minimal conflict
   cycle + read/write classification + Herbrand cross-validation) as
   the transaction count grows, and the full linter on each stock
   policy. *)

open Core
open Bechamel
open Toolkit

let make_tests () =
  let st = Random.State.make [| 99 |] in
  let anomaly_tests =
    List.map
      (fun n ->
        let syntax = Sim.Workload.uniform st ~n ~m:3 ~n_vars:2 in
        let h = Schedule.random st (Syntax.format syntax) in
        Test.make
          ~name:(Printf.sprintf "anomaly/check/n=%d" n)
          (Staged.stage (fun () -> ignore (Analysis.Anomaly.check syntax h))))
      [ 2; 3; 4; 5 ]
  in
  let lint_syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  let lint_tests =
    List.map
      (fun name ->
        Test.make ~name:("lint/" ^ name)
          (Staged.stage (fun () ->
               ignore
                 (Analysis.Lock_lint.lint
                    (Analysis.Lock_lint.of_policy
                       (Analysis.Analyze.policy_of_name name lint_syntax)
                       lint_syntax)))))
      [ "2pl"; "2pl'"; "preclaim"; "mutex" ]
  in
  anomaly_tests @ lint_tests

let run () =
  Tables.section "S1-analyzer-throughput"
    "static analysis cost (Bechamel, ns per run)";
  let tests = Test.make_grouped ~name:"analyze" ~fmt:"%s/%s" (make_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Printf.printf "%-34s %14.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-34s (no estimate)\n" name)
    (List.sort compare rows);
  (* a throughput figure for the cheap path: anomaly checks per second
     on the acceptance-criteria system *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  let h = Schedule.of_interleaving [| 0; 1; 0; 1 |] in
  let t0 = Sys.time () in
  let reps = 20_000 in
  for _ = 1 to reps do
    ignore (Analysis.Anomaly.check syntax h)
  done;
  let dt = Sys.time () -. t0 in
  Printf.printf "anomaly checks on xy,yx: %.0f checks/s\n"
    (float_of_int reps /. dt)
