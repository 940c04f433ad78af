(* The commutativity-aware semantic scheduler and the typed-operation
   step model behind it.

   Three layers of evidence:

   - [Core.Commute] is a lawful table: symmetric, Read/Read commutes,
     and on the untyped (read/write/update) fragment it degenerates to
     the classical rw conflict relation — so nothing in the old model
     moved.

   - On untyped syntax [Sched.Semantic] is decision-for-decision equal
     to [Sched.Sgt]: identical grant/delay traces and statistics on
     every interleaving of every format up to total size 5.

   - On typed syntax its fixpoint set strictly contains rw-SGT's, and
     every admitted history is correct three independent ways: the
     extended Herbrand oracle (layered commutative normal forms) finds
     a serial witness, the black-box checker passes it at "ser", and
     the concrete machine ([Exec] over [System.of_syntax]) reaches the
     serial witness's final state. *)

open Util
open Core

(* ---------- the commutativity table ---------- *)

let test_commute_properties () =
  (* symmetric over the whole op square *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_true "commute symmetric"
            (Commute.commutes a b = Commute.commutes b a);
          check_true "conflicts = not commutes"
            (Commute.conflicts a b = not (Commute.commutes a b)))
        Op.all)
    Op.all;
  check_true "read/read commutes" (Commute.commutes Op.Read Op.Read);
  (* conservative fallback: on the untyped fragment the table IS the
     classical rw relation *)
  let untyped = [ Op.Read; Op.Write; Op.Update ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_true "untyped pairs fall back to rw"
            (Commute.conflicts a b = Commute.rw_conflicts a b))
        untyped)
    untyped;
  (* semantic groups commute within themselves and with nothing else *)
  check_true "incr/decr commute" (Commute.commutes Op.Incr Op.Decr);
  check_true "enqueue/enqueue commute" (Commute.commutes Op.Enqueue Op.Enqueue);
  check_true "max/max commute" (Commute.commutes Op.Max Op.Max);
  check_true "cross-group conflicts" (Commute.conflicts Op.Incr Op.Enqueue);
  check_true "incr/read conflicts" (Commute.conflicts Op.Incr Op.Read);
  check_true "incr/update conflicts" (Commute.conflicts Op.Incr Op.Update);
  (* an unknown-vs-anything pair is at least as strict as rw: nothing
     the table clears would have been a conflict under rw only if one
     side writes *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Commute.commutes a b then
            check_true "commuting pairs are rw-conflicts or read/read"
              ((a = Op.Read && b = Op.Read) || Commute.rw_conflicts a b))
        Op.all)
    Op.all

(* ---------- semantic = SGT on untyped syntax ---------- *)

type decision = Names.step_id * Sched.Scheduler.response

let traced trace (s : Sched.Scheduler.t) =
  Sched.Scheduler.make ~name:s.Sched.Scheduler.name
    ~attempt:(fun id ->
      let r = s.Sched.Scheduler.attempt id in
      trace := ((id, r) : decision) :: !trace;
      r)
    ~commit:s.Sched.Scheduler.commit ~on_abort:s.Sched.Scheduler.on_abort
    ~victim:s.Sched.Scheduler.victim ()

let same_stats (a : Sched.Driver.stats) (b : Sched.Driver.stats) =
  Schedule.equal a.Sched.Driver.output b.Sched.Driver.output
  && a.Sched.Driver.delays = b.Sched.Driver.delays
  && a.Sched.Driver.restarts = b.Sched.Driver.restarts
  && a.Sched.Driver.deadlocks = b.Sched.Driver.deadlocks
  && a.Sched.Driver.grants = b.Sched.Driver.grants

let check_equiv syntax arrivals =
  let fmt = Syntax.format syntax in
  let t1 = ref [] and t2 = ref [] in
  let s1 =
    Sched.Driver.run
      (traced t1 (Sched.Semantic.create ~syntax ()))
      ~fmt ~arrivals
  in
  let s2 =
    Sched.Driver.run (traced t2 (Sched.Sgt.create ~syntax ())) ~fmt ~arrivals
  in
  check_true "semantic = SGT decision trace" (!t1 = !t2);
  check_true "semantic = SGT stats" (same_stats s1 s2)

let compositions total =
  let rec go rem acc out =
    if rem = 0 then Array.of_list (List.rev acc) :: out
    else
      let rec parts p out =
        if p > rem then out else parts (p + 1) (go (rem - p) (p :: acc) out)
      in
      parts 1 out
  in
  go total [] []

let syntax_of_fmt ~n_vars ~seed fmt =
  let st = rng seed in
  Syntax.make
    (Array.map
       (fun m ->
         Array.init m (fun _ -> var_names.(Random.State.int st n_vars)))
       fmt)

let test_untyped_exhaustive () =
  (* all formats up to total size 5, all interleavings, two contention
     levels: on untyped syntax the commutativity filter is the identity
     and the two engines must be observationally indistinguishable *)
  for total = 2 to 5 do
    List.iter
      (fun fmt ->
        List.iter
          (fun (n_vars, seed) ->
            let syntax = syntax_of_fmt ~n_vars ~seed fmt in
            Combin.Interleave.iter fmt (fun arrivals ->
                check_equiv syntax (Array.copy arrivals)))
          [ (2, 17); (3, 23) ])
      (compositions total)
  done

(* ---------- typed fixpoints: strict superset, all correct ---------- *)

(* the canonical witness: two transactions of commuting increments,
   arrivals +x1 +x2 +y2 +y1 — the rw reading sees the cross as a cycle
   and delays, the semantic reading sees four bumps and sails *)
let witness_syntax =
  Syntax.make_typed
    [|
      [| (Op.Incr, "x"); (Op.Incr, "y") |];
      [| (Op.Incr, "x"); (Op.Incr, "y") |];
    |]

let witness_arrivals = [| 0; 1; 1; 0 |]

let test_witness_history () =
  let fmt = Syntax.format witness_syntax in
  let sgt =
    Sched.Driver.run
      (Sched.Sgt.create ~syntax:witness_syntax ())
      ~fmt ~arrivals:(Array.copy witness_arrivals)
  in
  let sem =
    Sched.Driver.run
      (Sched.Semantic.create ~syntax:witness_syntax ())
      ~fmt ~arrivals:(Array.copy witness_arrivals)
  in
  check_true "SGT delays the crossing" (sgt.Sched.Driver.delays > 0);
  check_true "semantic admits it undelayed" (Sched.Driver.zero_delay sem);
  (* and what it admitted is still serializable, symbolically and to
     the black-box checker *)
  check_true "witness history Herbrand-serializable"
    (Herbrand.serializable witness_syntax sem.Sched.Driver.output);
  let h =
    Analysis.History.of_schedule witness_syntax sem.Sched.Driver.output
  in
  match
    (Analysis.Checker.check h Analysis.Checker.Serializability).verdict
  with
  | Analysis.Checker.Consistent _ -> ()
  | _ -> Alcotest.fail "checker rejects the semantic witness history"

(* typed corpus for the fixpoint sweeps: pure counters, counters with a
   sealing read, mixed groups on one variable, and the banking example *)
let typed_corpus =
  [
    witness_syntax;
    Examples.hot_account;
    Syntax.make_typed
      [|
        [| (Op.Incr, "x"); (Op.Read, "x") |];
        [| (Op.Incr, "x") |];
      |];
    Syntax.make_typed
      [|
        [| (Op.Max, "x"); (Op.Incr, "y") |];
        [| (Op.Max, "x"); (Op.Incr, "y") |];
      |];
    Syntax.make_typed
      [|
        [| (Op.Incr, "x") |];
        [| (Op.Enqueue, "x") |];
        [| (Op.Incr, "x") |];
      |];
  ]

let mem_schedule h hs = List.exists (fun h' -> Schedule.equal h h') hs

let test_fixpoint_superset () =
  List.iter
    (fun syntax ->
      let fmt = Syntax.format syntax in
      let fp_sem =
        Sched.Driver.fixpoint_of
          (fun () -> Sched.Semantic.create ~syntax ())
          fmt
      in
      let fp_sgt =
        Sched.Driver.fixpoint_of (fun () -> Sched.Sgt.create ~syntax ()) fmt
      in
      List.iter
        (fun h ->
          check_true "semantic fixpoint contains SGT's"
            (mem_schedule h fp_sem))
        fp_sgt;
      (* everything the semantic engine admits is symbolically
         serializable under the commutative normal-form oracle *)
      List.iter
        (fun h ->
          check_true "semantic fixpoint within SR"
            (Herbrand.serializable syntax h))
        fp_sem)
    typed_corpus;
  (* strictness on the witness syntax: the crossing interleaving is
     semantic-only *)
  let fmt = Syntax.format witness_syntax in
  let fp_sem =
    Sched.Driver.fixpoint_of
      (fun () -> Sched.Semantic.create ~syntax:witness_syntax ())
      fmt
  in
  let fp_sgt =
    Sched.Driver.fixpoint_of
      (fun () -> Sched.Sgt.create ~syntax:witness_syntax ())
      fmt
  in
  check_true "strictly more on typed syntax"
    (List.length fp_sem > List.length fp_sgt);
  let sem =
    Sched.Driver.run
      (Sched.Semantic.create ~syntax:witness_syntax ())
      ~fmt ~arrivals:(Array.copy witness_arrivals)
  in
  check_true "crossing schedule in semantic fixpoint"
    (mem_schedule sem.Sched.Driver.output fp_sem);
  check_true "crossing schedule not in SGT fixpoint"
    (not (mem_schedule sem.Sched.Driver.output fp_sgt))

let test_exec_oracle () =
  (* concrete replay: every semantic-fixpoint history of the hot
     account reaches the final state of the serial order the Herbrand
     witness names — the symbolic equivalence is not vacuous *)
  let syntax = Examples.hot_account in
  let sys = Examples.hot_account_system in
  let initial = Examples.hot_account_initial in
  let fp =
    Sched.Driver.fixpoint_of
      (fun () -> Sched.Semantic.create ~syntax ())
      (Syntax.format syntax)
  in
  check_true "hot-account fixpoint nonempty" (fp <> []);
  List.iter
    (fun h ->
      match Herbrand.serialization_witness syntax h with
      | None -> Alcotest.fail "admitted history has no serial witness"
      | Some order ->
        let serial =
          Exec.run_concatenation sys initial (Array.to_list order)
        in
        check_true "concrete state matches serial witness"
          (State.equal (Exec.run sys initial h) serial))
    fp;
  (* and the interleavings are genuinely all admitted: one hot account
     of commuting credits/debits coordinates on nothing *)
  let count = ref 0 in
  Combin.Interleave.iter (Syntax.format syntax) (fun _ -> incr count);
  check_int "whole universe admitted" !count (List.length fp)

(* ---------- assertional parity on the hot account ---------- *)

let test_assertional_parity () =
  (* the paper's Section 6 scheduler reaches the same verdict from the
     opposite direction: it proves every interleaving keeps A >= 0,
     knowing nothing about commutativity; the semantic engine knows the
     ops commute, knowing nothing about the integrity constraint *)
  let syntax = Examples.hot_account in
  let sys = Examples.hot_account_system in
  let fmt = Syntax.format syntax in
  let arcs = Sched.Assertional.ic_arcs sys in
  Combin.Interleave.iter fmt (fun arrivals ->
      let sem =
        Sched.Driver.run
          (Sched.Semantic.create ~syntax ())
          ~fmt ~arrivals:(Array.copy arrivals)
      in
      check_true "semantic grants every order" (Sched.Driver.zero_delay sem);
      let sched, state =
        Sched.Assertional.create ~system:sys ~arcs
          ~initial:Examples.hot_account_initial ()
      in
      let a =
        Sched.Driver.run sched ~fmt ~arrivals:(Array.copy arrivals)
      in
      check_true "assertional grants every order" (Sched.Driver.zero_delay a);
      check_true "balance settles at 290"
        (State.equal (state ())
           (State.of_ints [ ("A", 290) ])))

(* ---------- classification and the History bridge ---------- *)

let test_step_kind_roundtrip () =
  (* classify o canonical_phi = id, except Enqueue whose bag insert is
     modelled as adding a per-step token and reads back as Incr *)
  List.iter
    (fun op ->
      let sys =
        System.of_syntax (Syntax.make_typed [| [| (op, "x") |] |])
      in
      let expect = if op = Op.Enqueue then Op.Incr else op in
      check_true
        (Printf.sprintf "roundtrip %s" (Op.to_string op))
        (System.step_kind sys (Names.step 0 0) = expect))
    Op.all

let test_demotion () =
  (* phi11 is an increment shape, but phi12 observes t11 — commuting
     T11 past another bump would change what T12 sees, so the
     classification must fall back to Update *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ] ] in
  let sys =
    System.make syntax
      [| [| Expr.Ast.Add (Local 0, Expr.Ast.int 1);
            Expr.Ast.Mul (Local 0, Local 1) |] |]
  in
  check_true "leaked increment demoted to update"
    (System.step_kind sys (Names.step 0 0) = Op.Update);
  (* unobserved, the same shape keeps its semantic classification *)
  let sys' =
    System.make syntax
      [| [| Expr.Ast.Add (Local 0, Expr.Ast.int 1);
            Expr.Ast.Add (Local 1, Expr.Ast.int 2) |] |]
  in
  check_true "unobserved increment stays incr"
    (System.step_kind sys' (Names.step 0 0) = Op.Incr)

let test_history_event_shapes () =
  (* the black-box bridge: a Read records R only, blind and semantic
     ops record W only (their unread values constrain no reads-from
     axiom, which is exactly why the checker stays sound on them), an
     Update records R then W *)
  let syntax =
    Syntax.make_typed
      [|
        [| (Op.Read, "x") |];
        [| (Op.Incr, "x") |];
        [| (Op.Write, "x") |];
        [| (Op.Update, "x") |];
      |]
  in
  let h =
    Analysis.History.of_schedule syntax
      [| Names.step 0 0; Names.step 1 0; Names.step 2 0; Names.step 3 0 |]
  in
  let kinds tx =
    List.map (fun e -> e.Analysis.History.kind) (Analysis.History.events h tx)
  in
  check_true "read is R-only" (kinds 0 = [ Analysis.History.R ]);
  check_true "incr is W-only" (kinds 1 = [ Analysis.History.W ]);
  check_true "blind write is W-only" (kinds 2 = [ Analysis.History.W ]);
  check_true "update is R then W"
    (kinds 3 = [ Analysis.History.R; Analysis.History.W ])

let observer_free syntax =
  let ok = ref true in
  Array.iteri
    (fun i m ->
      for j = 0 to m - 1 do
        if Op.observes (Syntax.kind syntax (Names.step i j)) then ok := false
      done)
    (Syntax.format syntax);
  !ok

let test_checker_accepts_semantic_commits () =
  (* Every observer-free history the semantic engine commits verifies
     at its registry-declared level ("ser"): blind/semantic writes
     carry values no read ever mentions, so the rw projection
     constrains nothing. With observers in the mix the projection is
     sound but incomplete — pinned below. *)
  let entry = Sched.Registry.find_exn "semantic" in
  check_true "registry level is ser" (entry.Sched.Registry.level = "ser");
  check_true "registry standard member" entry.Sched.Registry.standard;
  let blind = List.filter observer_free typed_corpus in
  check_true "corpus has observer-free syntaxes" (List.length blind >= 3);
  List.iter
    (fun syntax ->
      let fp =
        Sched.Driver.fixpoint_of
          (fun () ->
            entry.Sched.Registry.make ?sink:None syntax)
          (Syntax.format syntax)
      in
      List.iter
        (fun sched ->
          let h = Analysis.History.of_schedule syntax sched in
          match
            (Analysis.Checker.check h Analysis.Checker.Serializability)
              .verdict
          with
          | Analysis.Checker.Consistent _ -> ()
          | _ -> Alcotest.fail "semantic commit fails ser check")
        fp)
    blind

let test_checker_incomplete_on_observed_counters () =
  (* The other direction of the projection contract: a transaction that
     reads the counter it bumped, with a foreign bump in between, is
     commutative-serializable (the Herbrand oracle proves it) but its
     rw projection is a lost-update shape the rw checker correctly
     rejects — sound, incomplete, and documented in
     [Analysis.History]. *)
  let syntax =
    Syntax.make_typed
      [|
        [| (Op.Incr, "x"); (Op.Read, "x") |];
        [| (Op.Incr, "x") |];
      |]
  in
  (* +x1 +x2 r1 *)
  let sched = [| Names.step 0 0; Names.step 1 0; Names.step 0 1 |] in
  let sem =
    Sched.Driver.run
      (Sched.Semantic.create ~syntax ())
      ~fmt:(Syntax.format syntax) ~arrivals:[| 0; 1; 0 |]
  in
  check_true "semantic admits the crossing read"
    (Sched.Driver.zero_delay sem
    && Schedule.equal sem.Sched.Driver.output sched);
  check_true "Herbrand proves it serializable"
    (Herbrand.serializable syntax sched);
  let h = Analysis.History.of_schedule syntax sched in
  match
    (Analysis.Checker.check h Analysis.Checker.Serializability).verdict
  with
  | Analysis.Checker.Violation _ -> ()
  | _ ->
    Alcotest.fail "rw projection of an observed counter crossing accepted"

(* ---------- Commute_pass counts transactions ---------- *)

let test_commute_pass_counts_transactions () =
  (* [skipped] is the number of distinct other transactions a grant did
     not serialize against. T0's bump and debit of x commute with T1's
     bump: one transaction passed over, not two accesses. T0's read of x
     conflicts with it: T1 serializes after T0, so nothing is passed
     over even though T0's bump commutes. *)
  let passes syntax arrivals =
    let c = Obs.Sink.Memory.create () in
    let sink = Obs.Sink.Memory.sink c in
    ignore
      (Sched.Driver.run
         (Sched.Semantic.create ~sink ~syntax ())
         ~fmt:(Syntax.format syntax) ~arrivals);
    List.filter_map
      (function
        | _, Obs.Event.Commute_pass { tx; skipped; _ } -> Some (tx, skipped)
        | _ -> None)
      (Obs.Sink.Memory.events c)
  in
  let t0 second =
    Syntax.make_typed
      [|
        [| (Op.Incr, "x"); (second, "x"); (Op.Incr, "y") |];
        [| (Op.Incr, "x") |];
      |]
  in
  check_true "bump and debit pass as one transaction"
    (passes (t0 Op.Decr) [| 0; 0; 1; 0 |] = [ (1, 1) ]);
  check_true "a conflicting access is no pass"
    (passes (t0 Op.Read) [| 0; 0; 1; 0 |] = [])

(* ---------- randomized typed sweep ---------- *)

(* Seeded counter mixes, four arrival streams each, run through both
   engines. *)
let counter_runs seed =
  let st = Random.State.make [| 0x5e44; seed |] in
  let n = 2 + Random.State.int st 3 in
  let m = 1 + Random.State.int st 3 in
  let syntax =
    Sim.Workload.semantic_counters st ~n ~m ~n_vars:2 ~theta:0.8
      ~read_frac:0.2
  in
  let fmt = Syntax.format syntax in
  List.init 4 (fun _ ->
      let arrivals = Combin.Interleave.random st fmt in
      let run s = Sched.Driver.run s ~fmt ~arrivals:(Array.copy arrivals) in
      ( syntax,
        run (Sched.Semantic.create ~syntax ()),
        run (Sched.Sgt.create ~syntax ()) ))

let prop_counter_sound =
  QCheck.Test.make ~count:20 ~name:"semantic sound on counter mixes"
    QCheck.(make Gen.int)
    (fun seed ->
      List.for_all
        (fun (syntax, sem, _) ->
          Herbrand.serializable syntax sem.Sched.Driver.output)
        (counter_runs seed))

(* Semantic's conflicts are a subset of SGT's: on a stream SGT grants
   without a delay, each prefix's semantic conflict graph is a subgraph
   of SGT's acyclic one, so semantic grants it the same way. The
   converse fails (see the pin below). *)
let prop_zero_delay_containment =
  QCheck.Test.make ~count:20
    ~name:"SGT zero-delay streams pass semantic"
    QCheck.(make Gen.int)
    (fun seed ->
      List.for_all
        (fun (_, sem, sgt) ->
          (not (Sched.Driver.zero_delay sgt))
          || Sched.Driver.zero_delay sem
             && Schedule.equal sem.Sched.Driver.output sgt.Sched.Driver.output)
        (counter_runs seed))

let test_may_delay_more_than_sgt () =
  (* "semantic never delays or restarts more than SGT" is false, and
     pinned here as such. On this 4x3 counter mix semantic admits
     commuting decrements SGT serializes, and the order it commits to
     costs it later: 17 delays and 3 restarts against SGT's 12 and 2. *)
  let syntax =
    Syntax.make_typed
      [|
        [| (Op.Decr, "x"); (Op.Decr, "x"); (Op.Incr, "y") |];
        [| (Op.Decr, "x"); (Op.Decr, "x"); (Op.Decr, "x") |];
        [| (Op.Decr, "x"); (Op.Incr, "x"); (Op.Read, "x") |];
        [| (Op.Decr, "x"); (Op.Read, "x"); (Op.Read, "y") |];
      |]
  in
  let fmt = Syntax.format syntax in
  let arrivals = [| 3; 0; 0; 1; 2; 1; 2; 3; 1; 2; 3; 0 |] in
  let run s = Sched.Driver.run s ~fmt ~arrivals:(Array.copy arrivals) in
  let sem = run (Sched.Semantic.create ~syntax ()) in
  let sgt = run (Sched.Sgt.create ~syntax ()) in
  check_int "semantic delays" 17 sem.Sched.Driver.delays;
  check_int "semantic restarts" 3 sem.Sched.Driver.restarts;
  check_int "SGT delays" 12 sgt.Sched.Driver.delays;
  check_int "SGT restarts" 2 sgt.Sched.Driver.restarts;
  check_true "semantic output serializable"
    (Herbrand.serializable syntax sem.Sched.Driver.output)

(* ---------- the typed event log, pinned ---------- *)

(* The semantic engine's full event log on typed syntax: the order of
   its [Edge_added], [Commute_pass] and [Cycle_refused] events, which
   the conflict-class numbering and the accessor lists decide. The
   corpus is the [ctr] corpus of the kernel's delay-replay test, the
   bench's counter shape at seeds 1-4, and one read/update mix. *)
let event_log_corpus () =
  let draw st syntax =
    (syntax, Combin.Interleave.random st (Syntax.format syntax))
  in
  let ctr =
    List.init 8 (fun seed ->
        let st = Random.State.make [| 0xC7A; seed |] in
        let n = 6 + Random.State.int st 6 in
        draw st
          (Sim.Workload.semantic_counters st ~n ~m:3 ~n_vars:3 ~theta:0.7
             ~read_frac:0.3))
  in
  let bench =
    List.init 4 (fun i ->
        let st = Random.State.make [| i + 1 |] in
        draw st
          (Sim.Workload.semantic_counters st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8
             ~read_frac:0.1))
  in
  let mixed =
    let st = Random.State.make [| 0x313 |] in
    draw st
      (Sim.Workload.mixed st ~n:12 ~m:4 ~n_vars:4 ~read_frac:0.4 ~theta:0.6)
  in
  ctr @ bench @ [ mixed ]

let test_event_log_digest () =
  let buf = Buffer.create 65536 in
  let edges = ref 0 and passes = ref 0 and refusals = ref 0 in
  List.iter
    (fun (syntax, arrivals) ->
      let c = Obs.Sink.Memory.create () in
      let sink = Obs.Sink.Memory.sink c in
      ignore
        (Sched.Driver.run ~sink
           (Sched.Semantic.create ~sink ~syntax ())
           ~fmt:(Syntax.format syntax) ~arrivals);
      let events = Obs.Sink.Memory.events c in
      List.iter
        (function
          | _, Obs.Event.Edge_added _ -> incr edges
          | _, Obs.Event.Commute_pass _ -> incr passes
          | _, Obs.Event.Cycle_refused _ -> incr refusals
          | _ -> ())
        events;
      Buffer.add_string buf (Obs.Event_log.to_string events))
    (event_log_corpus ());
  check_true "the corpus adds edges" (!edges > 0);
  check_true "the corpus passes over commuting accessors" (!passes > 0);
  check_true "the corpus refuses cycles" (!refusals > 0);
  Alcotest.(check string)
    "semantic event-log digest" "9b4f8b0b55dd560c830cc55320612dbf"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "commutativity table laws" `Quick
      test_commute_properties;
    Alcotest.test_case "semantic = SGT exhaustive on untyped" `Slow
      test_untyped_exhaustive;
    Alcotest.test_case "witness: SGT delays, semantic admits" `Quick
      test_witness_history;
    Alcotest.test_case "fixpoint strict superset, all in SR" `Quick
      test_fixpoint_superset;
    Alcotest.test_case "exec oracle on the hot account" `Quick
      test_exec_oracle;
    Alcotest.test_case "assertional parity on the hot account" `Quick
      test_assertional_parity;
    Alcotest.test_case "step-kind roundtrip" `Quick test_step_kind_roundtrip;
    Alcotest.test_case "semantic demotion on observed locals" `Quick
      test_demotion;
    Alcotest.test_case "history event shapes" `Quick
      test_history_event_shapes;
    Alcotest.test_case "checker accepts semantic commits" `Quick
      test_checker_accepts_semantic_commits;
    Alcotest.test_case "checker sound-but-incomplete pin" `Quick
      test_checker_incomplete_on_observed_counters;
    Alcotest.test_case "commute pass counts transactions" `Quick
      test_commute_pass_counts_transactions;
    Alcotest.test_case "semantic may delay more than SGT" `Quick
      test_may_delay_more_than_sgt;
    Alcotest.test_case "typed event log, pinned" `Quick
      test_event_log_digest;
  ]
  @ qsuite [ prop_counter_sound; prop_zero_delay_containment ]
