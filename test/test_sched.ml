(* Tests for the online schedulers: fixpoint sets match the theory
   (serial scheduler = serial schedules, SGT = SR(T), 2PL in between),
   outputs are always correct, and the driver preserves work. *)

open Util
open Core

let fmt22 = [| 2; 2 |]
let hot = Examples.hot_spot 2 2
let two_var = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ]

let run_serial fmt arrivals =
  Sched.Driver.run (Sched.Serial_sched.create ~fmt) ~fmt ~arrivals

let test_serial_passes_serial () =
  let arrivals = [| 0; 0; 1; 1 |] in
  let s = run_serial fmt22 arrivals in
  check_true "zero delay" (Sched.Driver.zero_delay s);
  check_true "output = input"
    (Schedule.equal s.Sched.Driver.output (Schedule.of_interleaving arrivals))

let test_serial_delays_interleaved () =
  let arrivals = [| 0; 1; 0; 1 |] in
  let s = run_serial fmt22 arrivals in
  check_false "delayed" (Sched.Driver.zero_delay s);
  check_true "output serial" (Schedule.is_serial s.Sched.Driver.output);
  check_true "output legal" (Schedule.is_schedule_of fmt22 s.Sched.Driver.output)

let test_serial_fixpoint () =
  (* Theorem 2 realised: the serial scheduler's fixpoint set is exactly
     the serial schedules *)
  let fp = Sched.Driver.fixpoint_of (fun () -> Sched.Serial_sched.create ~fmt:fmt22) fmt22 in
  let serial = Schedule.all_serial fmt22 in
  check_int "two serial schedules" (List.length serial) (List.length fp);
  List.iter (fun h -> check_true "serial" (Schedule.is_serial h)) fp

let test_sgt_fixpoint_is_sr () =
  (* Theorem 3 realised: SGT's fixpoint set is exactly SR(T) *)
  List.iter
    (fun syntax ->
      let fmt = Syntax.format syntax in
      let fp = Sched.Driver.fixpoint_of (fun () -> Sched.Sgt.create ~syntax ()) fmt in
      let sr = Fixpoint.sr_only syntax in
      check_int "same size" (List.length sr) (List.length fp);
      check_true "same set" (Fixpoint.subset fp sr && Fixpoint.subset sr fp))
    [ hot; two_var; Examples.fig1.System.syntax; Examples.indep ]

let test_sgt_outputs_serializable () =
  let st = rng 11 in
  for _ = 1 to 50 do
    let arrivals = Combin.Interleave.random st [| 2; 2; 2 |] in
    let syntax = Examples.hot_spot 3 2 in
    let s = Sched.Driver.run (Sched.Sgt.create ~syntax ()) ~fmt:[| 2; 2; 2 |] ~arrivals in
    check_true "legal output"
      (Schedule.is_schedule_of [| 2; 2; 2 |] s.Sched.Driver.output);
    check_true "serializable output"
      (Conflict.serializable syntax s.Sched.Driver.output)
  done

let test_2pl_fixpoint_between () =
  (* serial ⊆ 2PL-fixpoint ⊆ SR, with the right inclusion strict:
     (T11, T21, T12) is serializable (T1 → T2 on x only) but 2PL still
     holds T1's x-lock when T21 arrives. *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "x" ] ] in
  let fmt = Syntax.format syntax in
  let fp_2pl =
    Sched.Driver.fixpoint_of (fun () -> Sched.Tpl_sched.create_2pl ~syntax ()) fmt
  in
  let serial = Schedule.all_serial fmt in
  let sr = Fixpoint.sr_only syntax in
  check_true "serial inside 2PL" (Fixpoint.subset serial fp_2pl);
  check_true "2PL inside SR" (Fixpoint.subset fp_2pl sr);
  check_true "2PL is not optimal as a scheduler (Sec 5.4)"
    (List.length fp_2pl < List.length sr)

let test_2pl_matches_greedy_passes () =
  (* the scheduler's zero-delay set = Locked.passes *)
  let syntax = two_var in
  let fmt = Syntax.format syntax in
  let locked = Locking.Two_phase.apply syntax in
  List.iter
    (fun h ->
      let s =
        Sched.Driver.run
          (Sched.Tpl_sched.create_2pl ~syntax ())
          ~fmt ~arrivals:(Schedule.to_interleaving h)
      in
      check_true "scheduler = greedy passes"
        (Sched.Driver.zero_delay s = Locking.Locked.passes locked h))
    (Schedule.all fmt)

let test_2pl_deadlock_resolved () =
  (* opposed lock orders: x,y vs y,x interleaved = deadlock; the driver
     must abort a victim and still complete *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  let s =
    Sched.Driver.run
      (Sched.Tpl_sched.create_2pl ~syntax ())
      ~fmt:[| 2; 2 |] ~arrivals:[| 0; 1; 0; 1 |]
  in
  check_true "completed legally"
    (Schedule.is_schedule_of [| 2; 2 |] s.Sched.Driver.output);
  check_true "a deadlock happened" (s.Sched.Driver.deadlocks >= 1);
  check_true "serializable anyway" (Conflict.serializable syntax s.Sched.Driver.output)

let test_2pl_prime_stalls_progress () =
  (* A 2PL' request can lack locks from several holders. A victim that
     is not the only blocker of the transaction waiting for it lets
     nobody through: its replay takes its locks straight back, and two
     such victims can trade a lock forever. On this 20x3 hot spot (the
     P3 low-contention workload) about one arrival order in six reaches
     a stall whose youngest cycle member is such a victim. *)
  let st = Random.State.make [| 5 |] in
  let syntax = Sim.Workload.hotspot st ~n:20 ~m:3 ~n_vars:8 ~theta:0.15 in
  let fmt = Syntax.format syntax in
  let entry = Sched.Registry.find_exn "2PL'" in
  let rs = Random.State.make [| 1 |] in
  for _ = 1 to 200 do
    let arrivals = Combin.Interleave.random rs fmt in
    let s = Sched.Driver.run (entry.Sched.Registry.make syntax) ~fmt ~arrivals in
    check_true "completed legally" (Schedule.is_schedule_of fmt s.Sched.Driver.output)
  done

let test_default_victim_youngest () =
  (* The head-of-list default victim is wound-wait-correct because the
     driver presents the stuck list youngest first (see
     [Scheduler.make]).  Two independent SGT cycles block T0 and T2
     simultaneously; T2 arrived later, so T2 must be the first deadlock
     victim — aborting the older T0 first would be a seniority
     inversion. *)
  let syntax =
    Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ]; [ "a"; "b" ]; [ "b"; "a" ] ]
  in
  let fmt = Syntax.format syntax in
  let collector = Obs.Sink.Memory.create () in
  let s =
    Sched.Driver.run
      ~sink:(Obs.Sink.Memory.sink collector)
      (Sched.Sgt.create ~syntax ())
      ~fmt
      ~arrivals:[| 0; 1; 1; 0; 2; 3; 3; 2 |]
  in
  check_true "completed legally" (Schedule.is_schedule_of fmt s.Sched.Driver.output);
  check_true "both cycles stalled" (s.Sched.Driver.deadlocks >= 2);
  let victims =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Obs.Event.Aborted { tx; reason = Obs.Event.Deadlock } -> Some tx
        | _ -> None)
      (Obs.Sink.Memory.events collector)
  in
  check_int "youngest blocked aborted first" 2 (List.hd victims);
  (* the head pick itself, via a scheduler built without ~victim *)
  let s =
    Sched.Scheduler.make ~name:"v"
      ~attempt:(fun _ -> Sched.Scheduler.Grant)
      ~commit:(fun _ -> ())
      ()
  in
  check_true "default victim = head"
    (s.Sched.Scheduler.victim [ 3; 1 ] = Some 3
    && s.Sched.Scheduler.victim [] = None)

let test_to_restarts () =
  (* arrival order T1 first gives T1 the older timestamp; T2 touching x
     first then forces T1 to restart *)
  let syntax = Examples.hot_spot 2 1 in
  let s =
    Sched.Driver.run
      (Sched.Timestamp.create ~syntax ())
      ~fmt:[| 1; 1 |] ~arrivals:[| 0; 1 |]
  in
  check_true "no restart in ts order" (s.Sched.Driver.restarts = 0);
  (* reversed arrival: T2 requests first (gets ts 1), then T1 (ts 2);
     both still granted: watermark moves up; no restart either. Force a
     restart with three transactions racing on x via fixpoint scan *)
  let syntax3 = Examples.hot_spot 2 2 in
  let restarts = ref 0 in
  List.iter
    (fun h ->
      let s =
        Sched.Driver.run
          (Sched.Timestamp.create ~syntax:syntax3 ())
          ~fmt:[| 2; 2 |] ~arrivals:(Schedule.to_interleaving h)
      in
      restarts := !restarts + s.Sched.Driver.restarts;
      check_true "legal output"
        (Schedule.is_schedule_of [| 2; 2 |] s.Sched.Driver.output);
      check_true "serializable output"
        (Conflict.serializable syntax3 s.Sched.Driver.output))
    (Schedule.all [| 2; 2 |]);
  check_true "some interleaving forces a restart" (!restarts > 0)

let test_to_fixpoint_subset_sr () =
  let syntax = two_var in
  let fmt = Syntax.format syntax in
  let fp = Sched.Driver.fixpoint_of (fun () -> Sched.Timestamp.create ~syntax ()) fmt in
  check_true "TO fixpoint inside SR" (Fixpoint.subset fp (Fixpoint.sr_only syntax))

let test_assertional_beyond_sr () =
  (* Figure 1's history is NOT serializable, so SGT delays it — but with
     integrity constraints that say nothing about x, the assertional
     scheduler passes it (the Kung-Lehman/Lamport §6 point). *)
  let sys =
    System.make ~ic:(System.Pred (Expr.Ast.bool true))
      Examples.fig1.System.syntax Examples.fig1.System.interp
  in
  let fmt = System.format sys in
  let arrivals = Schedule.to_interleaving Examples.fig1_history in
  let sgt = Sched.Driver.run (Sched.Sgt.create ~syntax:sys.System.syntax ()) ~fmt ~arrivals in
  check_false "SGT delays fig1 history" (Sched.Driver.zero_delay sgt);
  let sched, final =
    Sched.Assertional.create ~system:sys ~arcs:(Sched.Assertional.ic_arcs sys)
      ~initial:(State.of_ints [ ("x", 0) ])
      ()
  in
  let s = Sched.Driver.run sched ~fmt ~arrivals in
  check_true "assertional passes it" (Sched.Driver.zero_delay s);
  (* and the final state is what direct execution gives *)
  check_true "state matches execution"
    (State.equal (final ())
       (Exec.run sys (State.of_ints [ ("x", 0) ]) Examples.fig1_history))

let test_assertional_protects () =
  (* T1's mid-arc assertion pins x = 1; T2 wants to set x = 5 and must
     wait until T1 finishes. *)
  let open Expr.Ast in
  let syntax = Syntax.of_lists [ [ "x"; "x" ]; [ "x" ] ] in
  let sys =
    System.make syntax
      [|
        [| int 1; int 0 |];   (* T1: x <- 1 ; x <- 0 *)
        [| int 5 |];          (* T2: x <- 5 *)
      |]
  in
  let arcs =
    [|
      [| bool true; Eq (Global "x", int 1); bool true |];
      [| bool true; bool true |];
    |]
  in
  let sched, final =
    Sched.Assertional.create ~system:sys ~arcs
      ~initial:(State.of_ints [ ("x", 0) ]) ()
  in
  let s = Sched.Driver.run sched ~fmt:[| 2; 1 |] ~arrivals:[| 0; 1; 0 |] in
  check_false "T2 delayed" (Sched.Driver.zero_delay s);
  (* T21 must come after T12 in the output *)
  let pos id =
    let found = ref (-1) in
    Array.iteri
      (fun k s -> if Names.equal_step s id then found := k)
      s.Sched.Driver.output;
    !found
  in
  check_true "T21 after T12" (pos (Names.step 1 0) > pos (Names.step 0 1));
  check_true "final x = 5"
    (Expr.Value.equal (State.get (final ()) "x") (Expr.Value.Int 5))

let test_driver_waiting_metric () =
  let arrivals = [| 0; 1; 0; 1 |] in
  let s = run_serial fmt22 arrivals in
  check_true "waiting positive when delayed" (s.Sched.Driver.waiting > 0);
  let s' = run_serial fmt22 [| 0; 0; 1; 1 |] in
  check_int "no waiting on fixpoint" 0 s'.Sched.Driver.waiting

(* The driver's output is the grants of each transaction's last
   incarnation, in grant order: in the trace, the [Granted] events that
   follow the transaction's last [Restarted]. The abort-heavy corpus
   restarts transactions under every engine, and its batches grant more
   than 16 steps, so the grant log grows past its first size. *)
let test_driver_output_last_incarnation () =
  let engines =
    [
      ("SGT", fun syntax -> Sched.Sgt.create ~syntax ());
      ("TO", fun syntax -> Sched.Timestamp.create ~syntax ());
      ("2PL", fun syntax -> Sched.Tpl_sched.create_2pl ~syntax ());
    ]
  in
  List.iter
    (fun (name, mk) ->
      let grown = ref 0 and restarted = ref 0 in
      List.iter
        (fun (syntax, arrivals) ->
          let fmt = Syntax.format syntax in
          let c = Obs.Sink.Memory.create () in
          let s =
            Sched.Driver.run ~sink:(Obs.Sink.Memory.sink c) (mk syntax) ~fmt
              ~arrivals:(Array.copy arrivals)
          in
          let events = Array.of_list (List.map snd (Obs.Sink.Memory.events c)) in
          let last = Array.make (Array.length fmt) (-1) in
          Array.iteri
            (fun at e ->
              match e with
              | Obs.Event.Restarted { tx } -> last.(tx) <- at
              | _ -> ())
            events;
          let kept = ref [] in
          Array.iteri
            (fun at e ->
              match e with
              | Obs.Event.Granted { tx; idx } when at > last.(tx) ->
                kept := Names.step tx idx :: !kept
              | _ -> ())
            events;
          let out = s.Sched.Driver.output in
          check_true (name ^ ": output = last-incarnation grants")
            (Schedule.equal out (Array.of_list (List.rev !kept)));
          check_true (name ^ ": each step once, in index order")
            (Schedule.is_schedule_of fmt out);
          if s.Sched.Driver.grants > 16 then incr grown;
          if s.Sched.Driver.restarts > 0 then incr restarted)
        (abort_heavy_corpus 20);
      check_true (name ^ ": the log grew") (!grown > 0);
      check_true (name ^ ": transactions restarted") (!restarted > 0))
    engines

(* Both [Stall] paths of [Driver.drain]: a stall no victim resolves, and
   a livelock that exhausts the drain budget. A scheduler that delays
   everything fails cleanly either way instead of spinning. *)
let stall_message ~victim =
  let broken =
    Sched.Scheduler.make ~name:"never"
      ~attempt:(fun _ -> Sched.Scheduler.Delay)
      ~commit:(fun _ -> ())
      ~victim ()
  in
  match Sched.Driver.run broken ~fmt:[| 1 |] ~arrivals:[| 0 |] with
  | _ -> ""
  | exception Sched.Driver.Stall msg -> msg

let test_driver_livelock_guard () =
  check_true "no victim: Stall names the stall"
    (contains (stall_message ~victim:(fun _ -> None)) "cannot resolve a stall");
  check_true "a victim every time: Stall names the budget"
    (contains (stall_message ~victim:(fun _ -> Some 0)) "budget exhausted")

(* Property: the driver always completes with a legal schedule, for
   every scheduler, on random arrival streams. *)
let prop_driver_total =
  QCheck.Test.make ~name:"driver completes legally for all schedulers"
    ~count:60
    (QCheck.make
       ~print:(fun (s, il) ->
         Format.asprintf "%a / %s" Syntax.pp s
           (String.concat "" (List.map string_of_int (Array.to_list il))))
       QCheck.Gen.(
         syntax_gen ~max_n:3 ~max_m:3 ~n_vars:2 >>= fun syntax ->
         map
           (fun seed ->
             let st = Random.State.make [| seed |] in
             (syntax, Combin.Interleave.random st (Syntax.format syntax)))
           int))
    (fun (syntax, arrivals) ->
      let fmt = Syntax.format syntax in
      let mks =
        [
          (fun () -> Sched.Serial_sched.create ~fmt);
          (fun () -> Sched.Sgt.create ~syntax ());
          (fun () -> Sched.Tpl_sched.create_2pl ~syntax ());
          (fun () -> Sched.Timestamp.create ~syntax ());
        ]
      in
      List.for_all
        (fun mk ->
          let s = Sched.Driver.run (mk ()) ~fmt ~arrivals in
          Schedule.is_schedule_of fmt s.Sched.Driver.output)
        mks)

(* A batch over 256 steps builds arrays too large for the minor heap,
   which go straight to the major heap. [Array.make]/[Array.init] of such
   an array starting from a young block first runs a minor collection, so
   one careless filler costs a collection per batch. On [disjoint], which
   needs no delays, nothing from building the engine to the drained
   output may trigger one. *)
let test_no_minor_collection () =
  List.iter
    (fun (name, create) ->
      List.iter
        (fun n ->
          let syntax = Sim.Workload.disjoint ~n ~m:2 in
          let fmt = Syntax.format syntax in
          let arrivals = Combin.Interleave.random (rng n) fmt in
          Gc.minor ();
          let before = (Gc.quick_stat ()).Gc.minor_collections in
          let drv = Sched.Driver.create (create syntax) ~fmt in
          Array.iter (Sched.Driver.submit drv) arrivals;
          let s = Sched.Driver.drain drv in
          let after = (Gc.quick_stat ()).Gc.minor_collections in
          check_true "zero delay" (Sched.Driver.zero_delay s);
          check_int (Printf.sprintf "%s at n = %d: minor collections" name n) 0
            (after - before))
        [ 256; 512 ])
    [
      ("SGT", fun syntax -> Sched.Sgt.create ~syntax ());
      ("semantic", fun syntax -> Sched.Semantic.create ~syntax ());
    ]

(* Property: SGT's output is always conflict-serializable. *)
let prop_sgt_correct =
  QCheck.Test.make ~name:"SGT outputs serializable (random)" ~count:80
    (arbitrary_syntax_and_schedule ~max_n:3 ~max_m:3 ~n_vars:2)
    (fun (syntax, h) ->
      let fmt = Syntax.format syntax in
      let s =
        Sched.Driver.run (Sched.Sgt.create ~syntax ()) ~fmt
          ~arrivals:(Schedule.to_interleaving h)
      in
      Conflict.serializable syntax s.Sched.Driver.output)

(* Property: 2PL scheduler outputs serializable too. *)
let prop_2pl_correct =
  QCheck.Test.make ~name:"2PL scheduler outputs serializable (random)"
    ~count:80
    (arbitrary_syntax_and_schedule ~max_n:3 ~max_m:3 ~n_vars:2)
    (fun (syntax, h) ->
      let fmt = Syntax.format syntax in
      let s =
        Sched.Driver.run
          (Sched.Tpl_sched.create_2pl ~syntax ())
          ~fmt ~arrivals:(Schedule.to_interleaving h)
      in
      Conflict.serializable syntax s.Sched.Driver.output)

(* Property: fixpoint inclusions serial ⊆ 2PL ⊆ SGT hold on random
   syntaxes. *)
let prop_fixpoint_chain =
  QCheck.Test.make ~name:"fixpoint chain serial ⊆ 2PL ⊆ SGT" ~count:20
    (QCheck.make (syntax_gen ~max_n:2 ~max_m:3 ~n_vars:2))
    (fun syntax ->
      let fmt = Syntax.format syntax in
      let fp mk = Sched.Driver.fixpoint_of mk fmt in
      let serial = fp (fun () -> Sched.Serial_sched.create ~fmt) in
      let tpl = fp (fun () -> Sched.Tpl_sched.create_2pl ~syntax ()) in
      let sgt = fp (fun () -> Sched.Sgt.create ~syntax ()) in
      Fixpoint.subset serial tpl && Fixpoint.subset tpl sgt)

let suite =
  [
    Alcotest.test_case "serial passes serial" `Quick test_serial_passes_serial;
    Alcotest.test_case "serial delays interleaved" `Quick test_serial_delays_interleaved;
    Alcotest.test_case "serial fixpoint" `Quick test_serial_fixpoint;
    Alcotest.test_case "SGT fixpoint = SR" `Quick test_sgt_fixpoint_is_sr;
    Alcotest.test_case "SGT outputs serializable" `Quick test_sgt_outputs_serializable;
    Alcotest.test_case "2PL fixpoint between" `Quick test_2pl_fixpoint_between;
    Alcotest.test_case "2PL = greedy passes" `Quick test_2pl_matches_greedy_passes;
    Alcotest.test_case "2PL deadlock resolution" `Quick test_2pl_deadlock_resolved;
    Alcotest.test_case "2PL' stalls make progress" `Quick
      test_2pl_prime_stalls_progress;
    Alcotest.test_case "default victim is youngest" `Quick test_default_victim_youngest;
    Alcotest.test_case "TO restarts" `Quick test_to_restarts;
    Alcotest.test_case "TO fixpoint in SR" `Quick test_to_fixpoint_subset_sr;
    Alcotest.test_case "assertional beyond SR" `Quick test_assertional_beyond_sr;
    Alcotest.test_case "assertional protects arcs" `Quick test_assertional_protects;
    Alcotest.test_case "waiting metric" `Quick test_driver_waiting_metric;
    Alcotest.test_case "driver output is the last incarnation" `Quick
      test_driver_output_last_incarnation;
    Alcotest.test_case "driver livelock guard" `Quick test_driver_livelock_guard;
    Alcotest.test_case "no forced minor collection" `Quick test_no_minor_collection;
  ]
  @ qsuite
      [ prop_driver_total; prop_sgt_correct; prop_2pl_correct; prop_fixpoint_chain ]
