let () =
  Alcotest.run "ccopt"
    [
      ("combin", Test_combin.suite);
      ("digraph", Test_digraph.suite);
      ("expr", Test_expr.suite);
      ("model", Test_model.suite);
      ("herbrand", Test_herbrand.suite);
      ("weak-sr", Test_weak_sr.suite);
      ("adversary", Test_adversary.suite);
      ("fixpoint", Test_fixpoint.suite);
      ("locking", Test_locking.suite);
      ("geometry", Test_geometry.suite);
      ("sched", Test_sched.suite);
      ("sgt-diff", Test_sgt_diff.suite);
      ("semantic", Test_semantic.suite);
      ("registry", Test_registry.suite);
      ("sharded", Test_sharded.suite);
      ("twopc", Test_twopc.suite);
      ("parallel", Test_parallel.suite);
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("optimality", Test_optimality.suite);
      ("rw-model", Test_rw.suite);
      ("extensions", Test_extensions.suite);
      ("misc", Test_misc.suite);
      ("rw-lock", Test_rw_lock.suite);
      ("recovery", Test_recovery.suite);
      ("analysis", Test_analysis.suite);
      ("checker", Test_checker.suite);
      ("mv", Test_mv.suite);
      ("json", Test_json.suite);
      ("driver", Test_driver.suite);
      ("setup", Test_setup.suite);
    ]
