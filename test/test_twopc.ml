(* Verification of the distributed atomic-commit layer [Sched.Twopc].

   The headline obligations:
   - the AC1-AC5 checker accepts the correct protocol over the
     exhaustive single-fault micro-universes AND a >= 250-seed random
     crash/timeout sweep (zero violations, every violation would be
     replayed as a witness);
   - deliberately broken variants (forget-log-on-recover,
     presume-commit-on-timeout) are rejected, and the rejecting round
     replays deterministically from its fault list;
   - the no-fault 2PC-routed sharded engine is decision-identical
     (decision traces, stats, commit set AND per-transaction abort
     counts) to the plain sharded engine;
   - the blocking window after a coordinator crash is measured, and the
     observability fold recovers it exactly from the event stream. *)

open Util
open Core

let cfg = Sched.Twopc.default

(* Wrap a scheduler so every [attempt] outcome is appended to [trace]
   (same harness as the sharded/SGT differential). *)
let traced trace (s : Sched.Scheduler.t) =
  Sched.Scheduler.make ~name:s.Sched.Scheduler.name
    ~attempt:(fun id ->
      let r = s.Sched.Scheduler.attempt id in
      trace := (id, r) :: !trace;
      r)
    ~commit:s.Sched.Scheduler.commit ~on_abort:s.Sched.Scheduler.on_abort
    ~victim:s.Sched.Scheduler.victim ()

(* ---------- protocol happy path ---------- *)

let test_happy_path () =
  let r =
    Sched.Twopc.round cfg ~nodes:4 ~coord:3 ~parts:[ 0; 1; 2 ] ~tx:0 ~seed:0
      ~faults:[] ()
  in
  check_true "commits" (r.Sched.Twopc.outcome = Some true);
  check_true "quiescent" r.Sched.Twopc.quiescent;
  check_int "everyone decides exactly once" 4
    (List.length r.Sched.Twopc.decisions);
  check_true "conforms to AC1-AC5" (Sched.Twopc.check r = []);
  check_int "all three voted" 3 (List.length r.Sched.Twopc.votes);
  check_true "all voted yes"
    (List.for_all snd r.Sched.Twopc.votes);
  (* yes-vote -> decision is one hop to the coordinator and one back *)
  check_true "happy-path blocking is a round trip"
    (r.Sched.Twopc.blocking > 0.
    && r.Sched.Twopc.blocking <= 3. *. cfg.Sched.Twopc.delay);
  check_true "no crashes, no timeouts" (r.Sched.Twopc.crashes = 0)

let test_vote_no_aborts () =
  let r =
    Sched.Twopc.round cfg ~nodes:3 ~coord:2 ~parts:[ 0; 1 ] ~tx:0 ~seed:0
      ~faults:[ Sched.Twopc.Vote_no { node = 1 } ]
      ()
  in
  check_true "aborts" (r.Sched.Twopc.outcome = Some false);
  check_true "conforms" (Sched.Twopc.check r = []);
  check_true "no-vote recorded"
    (List.assoc_opt 1 r.Sched.Twopc.votes = Some false)

(* ---------- the network queue ---------- *)

(* Events due at the same time drain in the order they were enqueued,
   deliveries and timers alike, including one a handler enqueues at the
   current time: the sequence tie-break of [Net.push]. *)
let test_net_equal_time_fifo () =
  let drained = ref [] in
  let note x = drained := x :: !drained in
  let handlers =
    {
      Sched.Net.on_msg =
        (fun net ~node:_ ~src:_ m ->
          note m;
          if m = "a" then Sched.Net.set_timer net ~node:2 ~tag:9 ~after:0.);
      on_timer = (fun _ ~node:_ ~tag -> note (Printf.sprintf "timer%d" tag));
      on_crash = (fun _ ~node:_ -> ());
      on_recover = (fun _ ~node:_ -> ());
    }
  in
  let net =
    Sched.Net.create ~nodes:3 ~delay:(fun ~src:_ ~dst:_ -> 1.) ~handlers ()
  in
  Sched.Net.send net ~src:0 ~dst:1 "a";
  Sched.Net.set_timer net ~node:1 ~tag:7 ~after:1.;
  Sched.Net.send net ~src:0 ~dst:2 "b";
  Sched.Net.set_timer net ~node:0 ~tag:3 ~after:0.5;
  Sched.Net.send net ~src:2 ~dst:0 "c";
  check_true "quiescent" (Sched.Net.run net = `Quiescent);
  Alcotest.(check (list string))
    "time order, then enqueue order"
    [ "timer3"; "a"; "timer7"; "b"; "c"; "timer9" ]
    (List.rev !drained)

(* The drain order is a stable sort of the pushes by time: random sends
   and timers with times drawn from a small set (so ties are common),
   some pushed by handlers while the queue drains, and enough of them
   that the queue outgrows its first capacity. Each push is labelled
   with its enqueue index. *)
let prop_net_drain_order =
  QCheck.Test.make ~name:"Net drains in (time, enqueue) order" ~count:300
    QCheck.(pair small_nat (int_range 1 40))
    (fun (seed, n) ->
      let st = Random.State.make [| 0x9E7; seed |] in
      let pushed = ref [] and drained = ref [] in
      let label = ref 0 in
      let fresh at =
        let l = !label in
        incr label;
        pushed := (at, l) :: !pushed;
        l
      in
      (* delays and timer offsets from {0, 0.5, 1}: a message to node
         [d] takes [d / 2]; payloads are labels, timers carry their
         label as tag *)
      let push net =
        let now = Sched.Net.now net in
        let d = Random.State.int st 3 in
        let after = float_of_int d /. 2. in
        if Random.State.bool st then
          Sched.Net.send net ~src:0 ~dst:d (fresh (now +. after))
        else
          Sched.Net.set_timer net ~node:d ~tag:(fresh (now +. after)) ~after
      in
      let handlers =
        {
          Sched.Net.on_msg =
            (fun net ~node:_ ~src:_ l ->
              drained := l :: !drained;
              if Random.State.int st 3 = 0 then push net);
          on_timer =
            (fun net ~node:_ ~tag ->
              drained := tag :: !drained;
              if Random.State.int st 3 = 0 then push net);
          on_crash = (fun _ ~node:_ -> ());
          on_recover = (fun _ ~node:_ -> ());
        }
      in
      let net =
        Sched.Net.create ~nodes:3
          ~delay:(fun ~src:_ ~dst -> float_of_int dst /. 2.)
          ~handlers ()
      in
      for _ = 1 to n do
        push net
      done;
      ignore (Sched.Net.run net);
      let expected =
        List.map snd
          (List.stable_sort
             (fun (a, _) (b, _) -> Float.compare a b)
             (List.rev !pushed))
      in
      List.rev !drained = expected)

(* Jitter draws from the round's own seeded state: the same seed gives
   the same round, a different seed moves its timings. *)
let test_jitter_round_replays () =
  let cfg = { cfg with Sched.Twopc.jitter = 0.5 } in
  let run seed =
    Sched.Twopc.round cfg ~nodes:3 ~coord:2 ~parts:[ 0; 1 ] ~tx:4 ~seed
      ~faults:[] ()
  in
  let r = run 11 in
  check_true "commits" (r.Sched.Twopc.outcome = Some true);
  check_true "same seed, same record" (compare r (run 11) = 0);
  check_true "another seed, other timings"
    (r.Sched.Twopc.finished_at <> (run 12).Sched.Twopc.finished_at)

(* ---------- the layer's results, pinned by digest ---------- *)

(* One digest over everything the 2PC layer computes: every round of
   the single-fault universes at 1-3 participants under each variant
   (plus a jittered universe, so the delay draws are pinned too), with
   its full record, event trace and verdict; then the service totals of
   the [ccopt verify --twopc] fault grid. The universes and the grid are
   the ones [Sim.Check_fuzz.verify_twopc] checks. A change to the
   protocol, to the network's drain order or to the fault sampling moves
   it. *)
let layer_digest () =
  let b = Buffer.create (1 lsl 20) in
  let bf fmt = Printf.bprintf b fmt in
  let round_line (faults, r, vs) =
    let open Sched.Twopc in
    bf "faults=[%s] outcome=%s votes=[%s]\n"
      (String.concat ";" (List.map (Format.asprintf "%a" pp_fault) faults))
      (match r.outcome with
      | Some true -> "commit"
      | Some false -> "abort"
      | None -> "none")
      (String.concat ";"
         (List.map (fun (p, v) -> Printf.sprintf "%d:%b" p v) r.votes));
    List.iter (fun (t, n, d) -> bf "  decided %h %d %b\n" t n d) r.decisions;
    bf "  decided_at=%h finished_at=%h blocking=%h msgs=%d crashes=%d \
        quiescent=%b inputs=[%s]\n"
      r.decided_at r.finished_at r.blocking r.msgs r.crashes r.quiescent
      (String.concat ","
         (Array.to_list (Array.map string_of_int r.node_inputs)));
    List.iter
      (fun (t, ev) -> bf "  %h %s\n" t (Obs.Event.to_string ev))
      r.events;
    List.iter (fun v -> bf "  %s\n" (Format.asprintf "%a" pp_violation v)) vs
  in
  List.iter
    (fun variant ->
      List.iter
        (fun (_, rounds) -> List.iter round_line rounds)
        (Sim.Check_fuzz.twopc_universes { cfg with Sched.Twopc.variant }))
    Sched.Twopc.[ Correct; Forget_log_on_recover; Presume_commit_on_timeout ];
  List.iter round_line
    (Sched.Twopc.universe
       { cfg with Sched.Twopc.jitter = 0.3 }
       ~n_parts:2 ~seed:5);
  List.iter
    (fun (crash_rate, slow_rate, t) ->
      let open Sched.Twopc in
      bf "grid %g/%g rounds=%d committed=%d aborted=%d latency=%h \
          blocking=%h max=%h msgs=%d crashes=%d\n"
        crash_rate slow_rate t.rounds t.committed t.aborted t.latency_sum
        t.blocking_sum t.blocking_max t.total_msgs t.total_crashes)
    (Sim.Check_fuzz.twopc_grid ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_layer_digest () =
  Alcotest.(check string)
    "universe rounds and fault-grid totals"
    "ec83f1ae0e4895747df4d4bc4e8eebcc" (layer_digest ());
  let r = Sim.Check_fuzz.verify_twopc () in
  Alcotest.(check (pair string int))
    "ccopt verify --twopc"
    ( "2PC AC1-AC5: 111 single-fault rounds exhaustively checked, 180 \
       fault-matrix service rounds, 0 violations\n",
      0 )
    (r.Sim.Trace_run.stdout, r.Sim.Trace_run.code)

(* ---------- a disabled sink costs nothing ---------- *)

(* A fault-free service round with the null sink builds no event, no
   option and no per-message closure: what it allocates is its state
   and its messages. Words per round over 1000 rounds, on the 4-shard
   cluster the sharded-2PC engine uses. *)
let words_per_round ~parts =
  let svc = Sched.Twopc.service ~shards:4 () in
  let shards = List.init parts (fun p -> p) in
  ignore (Sched.Twopc.commit svc ~tx:0 ~shards);
  let before = Gc.minor_words () in
  for tx = 1 to 1000 do
    ignore (Sched.Twopc.commit svc ~tx ~shards)
  done;
  (Gc.minor_words () -. before) /. 1000.

let test_null_sink_allocation () =
  let bound parts limit =
    let w = words_per_round ~parts in
    if w > limit then
      Alcotest.failf "%d participants: %.0f words per round (bound %.0f)"
        parts w limit
  in
  bound 2 600.;
  bound 4 900.

(* ---------- exhaustive single-fault micro-universes ---------- *)

let test_exhaustive_universes () =
  List.iter
    (fun n_parts ->
      let rounds = Sched.Twopc.universe cfg ~n_parts ~seed:1 in
      check_true "universe is non-trivial" (List.length rounds > 20);
      let crashed = ref 0 and aborted = ref 0 and faulty_commits = ref 0 in
      List.iter
        (fun (faults, r, vs) ->
          if vs <> [] then
            Alcotest.failf "single-fault universe violation:\n%s"
              (Sched.Twopc.witness r vs);
          if r.Sched.Twopc.crashes > 0 then incr crashed;
          if r.Sched.Twopc.outcome = Some false then incr aborted;
          if faults <> [] && r.Sched.Twopc.outcome = Some true then
            incr faulty_commits)
        rounds;
      (* the universe must actually exercise the interesting schedules:
         triggered crashes, fault-forced aborts, and faults the protocol
         absorbs without giving up the commit *)
      check_true "some crashes triggered" (!crashed > 0);
      check_true "some rounds aborted" (!aborted > 0);
      check_true "some faulty rounds still committed" (!faulty_commits > 0))
    [ 1; 2; 3 ]

(* ---------- broken variants are rejected, witnesses replay ---------- *)

let expect_rejected name variant =
  let cfg = { Sched.Twopc.default with Sched.Twopc.variant } in
  let rounds = Sched.Twopc.universe cfg ~n_parts:2 ~seed:3 in
  match List.find_opt (fun (_, _, vs) -> vs <> []) rounds with
  | None -> Alcotest.failf "%s: checker accepted a broken protocol" name
  | Some (faults, r, vs) ->
    check_true (name ^ ": witness renders")
      (String.length (Sched.Twopc.witness r vs) > 0);
    (* safety breakage shows up as agreement/irreversibility/validity *)
    check_true (name ^ ": violates a safety AC")
      (List.exists (fun v -> v.Sched.Twopc.ac <= 3) vs);
    (* replay the witness: a round is a deterministic function of its
       fault list (jitter off), so the violation must reproduce *)
    let r' =
      Sched.Twopc.round cfg ~nodes:3 ~coord:2 ~parts:[ 0; 1 ] ~tx:0 ~seed:3
        ~faults ()
    in
    check_true (name ^ ": witness replays") (Sched.Twopc.check r' = vs);
    check_true (name ^ ": replayed trace is identical")
      (r'.Sched.Twopc.events = r.Sched.Twopc.events)

let test_forget_log_rejected () =
  expect_rejected "forget-log-on-recover" Sched.Twopc.Forget_log_on_recover

let test_presume_commit_rejected () =
  expect_rejected "presume-commit-on-timeout"
    Sched.Twopc.Presume_commit_on_timeout

(* ---------- >= 250-seed random crash/timeout sweep ---------- *)

let test_seeded_sweep () =
  let cfg = { cfg with Sched.Twopc.jitter = 0.3 } in
  let crashes = ref 0 and aborted = ref 0 and committed = ref 0 in
  for seed = 0 to 249 do
    let st = Random.State.make [| 0x2FC; seed |] in
    let n_parts = 1 + Random.State.int st 5 in
    let parts = List.init n_parts (fun p -> p) in
    let coord = n_parts in
    let faults = ref [] in
    List.iter
      (fun node ->
        if Random.State.float st 1.0 < 0.3 then
          faults :=
            Sched.Twopc.Crash
              {
                node;
                at_input = Random.State.int st 8;
                repair = 2. +. Random.State.float st 30.;
              }
            :: !faults)
      (coord :: parts);
    List.iter
      (fun p ->
        if Random.State.float st 1.0 < 0.15 then
          faults := Sched.Twopc.Vote_no { node = p } :: !faults;
        if Random.State.float st 1.0 < 0.15 then
          faults :=
            Sched.Twopc.Slow_link
              { src = p; dst = coord; extra = 5. +. Random.State.float st 10. }
            :: !faults)
      parts;
    let r =
      Sched.Twopc.round cfg ~nodes:(n_parts + 1) ~coord ~parts ~tx:seed ~seed
        ~faults:!faults ()
    in
    crashes := !crashes + r.Sched.Twopc.crashes;
    (match r.Sched.Twopc.outcome with
    | Some true -> incr committed
    | _ -> incr aborted);
    match Sched.Twopc.check r with
    | [] -> ()
    | vs -> Alcotest.failf "sweep seed %d:\n%s" seed (Sched.Twopc.witness r vs)
  done;
  (* the sweep must be a real fault storm, not a happy-path rerun *)
  check_true "sweep triggered many crashes" (!crashes > 50);
  check_true "sweep aborted some rounds" (!aborted > 20);
  check_true "sweep committed some rounds" (!committed > 20)

(* ---------- no_faults pin: decision-identical to plain sharded ---------- *)

let stats_identical (a : Sched.Driver.stats) (b : Sched.Driver.stats) =
  Schedule.equal a.Sched.Driver.output b.Sched.Driver.output
  && a.Sched.Driver.delays = b.Sched.Driver.delays
  && a.Sched.Driver.restarts = b.Sched.Driver.restarts
  && a.Sched.Driver.deadlocks = b.Sched.Driver.deadlocks
  && a.Sched.Driver.grants = b.Sched.Driver.grants
  && a.Sched.Driver.aborts = b.Sched.Driver.aborts

let divergent ~shards syntax arrivals =
  let fmt = Syntax.format syntax in
  let t1 = ref [] and t2 = ref [] in
  let svc = Sched.Twopc.service ~shards () in
  let s1 =
    Sched.Driver.run
      (traced t1
         (Sched.Sharded.create ~shards
            ~commit_cross:(Sched.Twopc.commit svc)
            ~syntax ()))
      ~fmt ~arrivals:(Array.copy arrivals)
  in
  let s2 =
    Sched.Driver.run
      (traced t2 (Sched.Sharded.create ~shards ~syntax ()))
      ~fmt ~arrivals:(Array.copy arrivals)
  in
  !t1 <> !t2 || not (stats_identical s1 s2)

let test_no_faults_decision_identical () =
  (* the existing differential corpus: every composition of small
     totals under a couple of variable draws, plus random
     interleavings of a crossing workload *)
  for total = 2 to 5 do
    List.iter
      (fun fmt ->
        List.iter
          (fun (n_vars, seed) ->
            let syntax = Test_sharded.syntax_of_fmt ~n_vars ~seed fmt in
            let st = rng (17 * total) in
            for _ = 1 to 3 do
              let arrivals = Combin.Interleave.random st fmt in
              check_false "no_faults decision-identical (compositions)"
                (divergent ~shards:4 syntax arrivals)
            done)
          [ (2, 17); (3, 23) ])
      (Test_sharded.compositions total)
  done

let test_no_faults_sweep_with_shrinker () =
  (* 100-seed sweep in the test_sharded style, shrinker-armed: on a
     divergence the failing arrival stream is binary-searched down to a
     minimal failing prefix and printed with its reproduction data *)
  for seed = 0 to 99 do
    let st = Random.State.make [| 0x5AD; seed |] in
    let n = 2 + Random.State.int st 5 in
    let m = 2 + Random.State.int st 4 in
    let n_vars = 2 + Random.State.int st 4 in
    let syntax = Sim.Workload.uniform st ~n ~m ~n_vars in
    let fmt = Syntax.format syntax in
    let arrivals = Combin.Interleave.random st fmt in
    List.iter
      (fun shards ->
        check_sweep ~name:"no_faults 2PC vs sharded"
          ~repro:(fun small ->
            Format.asprintf
              "seed=%d shards=%d syntax=%a arrivals=%s (dune exec \
               test/main.exe -- test twopc)"
              seed shards Syntax.pp syntax (pp_arrivals small))
          ~fails:(fun a -> divergent ~shards syntax a)
          arrivals)
      [ 2; 4; 8 ]
  done

(* ---------- faulty service: abort accounting ---------- *)

(* A syntax with guaranteed cross-shard transactions at K = 4 (variable
   placement is hash-dependent, so probe a few candidates). *)
let crossing_syntax () =
  let candidates =
    [
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ]; [ "x"; "z" ]; [ "z"; "y" ] ];
      Syntax.of_lists [ [ "x"; "u" ]; [ "u"; "v" ]; [ "v"; "x" ]; [ "w"; "x" ] ];
      Syntax.of_lists [ [ "x"; "y"; "z"; "u" ]; [ "u"; "z" ]; [ "y"; "v" ] ];
    ]
  in
  match
    List.find_opt
      (fun s ->
        (Sched.Partition.make ~syntax:s ~shards:4).Sched.Partition.n_cross > 0)
      candidates
  with
  | Some s -> s
  | None -> Alcotest.fail "no candidate syntax is cross-shard at K=4"

let test_faulty_service_accounting () =
  (* a real fault storm over a real workload: enough cross-shard
     transactions that crashes land before decisions and force
     presumed-abort rounds *)
  let st = rng 3 in
  let syntax = Sim.Workload.uniform st ~n:14 ~m:3 ~n_vars:6 in
  let p = Sched.Partition.make ~syntax ~shards:4 in
  check_true "workload crosses shards" (p.Sched.Partition.n_cross >= 4);
  let fmt = Syntax.format syntax in
  let svc =
    Sched.Twopc.service ~shards:4 ~crash_rate:0.6 ~slow_rate:0.2 ~seed:7 ()
  in
  let arrivals = Combin.Interleave.random st fmt in
  let s =
    Sched.Driver.run
      (Sched.Sharded.create ~shards:4
         ~commit_cross:(Sched.Twopc.commit svc)
         ~syntax ())
      ~fmt ~arrivals
  in
  let t = Sched.Twopc.totals svc in
  check_int "every round accounted"
    t.Sched.Twopc.rounds
    (t.Sched.Twopc.committed + t.Sched.Twopc.aborted);
  (* the driver drains: every cross transaction eventually commits,
     each through exactly one successful round *)
  check_int "every cross transaction commits through exactly one round"
    p.Sched.Partition.n_cross t.Sched.Twopc.committed;
  check_true "aborted rounds show up as driver restarts"
    (s.Sched.Driver.restarts >= t.Sched.Twopc.aborted);
  check_true "the fault storm actually aborted rounds"
    (t.Sched.Twopc.aborted > 0);
  check_true "crashes were injected" (t.Sched.Twopc.total_crashes > 0);
  check_true "output still serializable"
    (Conflict.serializable syntax s.Sched.Driver.output)

(* ---------- blocking window: measured and fold-recovered ---------- *)

let test_coordinator_crash_blocking () =
  (* the classic 2PC cost: the coordinator crashes on the last vote,
     before any decision leaves — every yes-voter is in doubt until the
     coordinator recovers and presumes abort *)
  let collector = Obs.Sink.Memory.create () in
  let sink = Obs.Sink.Memory.sink collector in
  let repair = 25. in
  let faults = [ Sched.Twopc.Crash { node = 3; at_input = 3; repair } ] in
  let r =
    Sched.Twopc.round ~sink cfg ~nodes:4 ~coord:3 ~parts:[ 0; 1; 2 ] ~tx:5
      ~seed:0 ~faults ()
  in
  check_true "conforms" (Sched.Twopc.check r = []);
  check_int "the crash triggered" 1 r.Sched.Twopc.crashes;
  check_true "presumed abort after coordinator crash"
    (r.Sched.Twopc.outcome = Some false);
  check_true "blocking window spans the outage"
    (r.Sched.Twopc.blocking >= repair);
  (* the fold recovers the same window from the event stream alone *)
  (match Obs.Fold.blocking_windows (Obs.Sink.Memory.events collector) with
  | [ (tx, w) ] ->
    check_int "window tagged with the transaction" 5 tx;
    check_true "fold window = simulator window"
      (Float.abs (w -. r.Sched.Twopc.blocking) < 1e-9)
  | ws -> Alcotest.failf "expected one blocking window, got %d" (List.length ws));
  (* and the round's own trace round-trips through the event log *)
  let log = Obs.Event_log.to_string r.Sched.Twopc.events in
  match Obs.Event_log.parse log with
  | Ok (evs, 0) ->
    check_true "event log round-trips the round" (evs = r.Sched.Twopc.events)
  | Ok (_, d) -> Alcotest.failf "unexpected drop count %d" d
  | Error e -> Alcotest.failf "round trace failed to parse: %s" e

let test_blocking_fold_on_sweep () =
  (* fold-vs-simulator differential across a fault sweep: whenever a
     round's trace is complete, the fold's window equals the measured
     one *)
  for seed = 0 to 39 do
    let st = Random.State.make [| 0xB10C; seed |] in
    let n_parts = 2 + Random.State.int st 3 in
    let parts = List.init n_parts (fun p -> p) in
    let coord = n_parts in
    let faults =
      if Random.State.bool st then
        [
          Sched.Twopc.Crash
            {
              node = (if Random.State.bool st then coord else 0);
              at_input = Random.State.int st 5;
              repair = 2. +. Random.State.float st 28.;
            };
        ]
      else []
    in
    let collector = Obs.Sink.Memory.create () in
    let sink = Obs.Sink.Memory.sink collector in
    let r =
      Sched.Twopc.round ~sink cfg ~nodes:(n_parts + 1) ~coord ~parts ~tx:seed
        ~seed ~faults ()
    in
    let folded =
      match Obs.Fold.blocking_windows (Obs.Sink.Memory.events collector) with
      | [] -> 0.
      | [ (_, w) ] -> w
      | _ -> Alcotest.fail "one transaction, one window"
    in
    check_true "fold window = simulator window"
      (Float.abs (folded -. r.Sched.Twopc.blocking) < 1e-9)
  done

(* ---------- the registry engine: rounds flow through the trace ---------- *)

let test_sharded_2pc_engine_traced () =
  let syntax = crossing_syntax () in
  let fmt = Syntax.format syntax in
  let entry = Sched.Registry.find_exn "sharded-2pc" in
  let collector = Obs.Sink.Memory.create () in
  let sink = Obs.Sink.Memory.sink collector in
  let s =
    Sched.Driver.run ~sink
      (entry.Sched.Registry.make ~sink syntax)
      ~fmt
      ~arrivals:(Combin.Interleave.random (rng 9) fmt)
  in
  check_true "run commits" (s.Sched.Driver.grants > 0);
  let events = Obs.Sink.Memory.events collector in
  let has p = List.exists (fun (_, e) -> p e) events in
  check_true "prepare round traced"
    (has (function
      | Obs.Event.Twopc_sent { msg = Obs.Event.Prepare; _ } -> true
      | _ -> false));
  check_true "votes traced"
    (has (function
      | Obs.Event.Twopc_delivered { msg = Obs.Event.Vote _; _ } -> true
      | _ -> false));
  check_true "decisions traced"
    (has (function Obs.Event.Twopc_decided _ -> true | _ -> false));
  check_true "blocking windows recoverable from the driver trace"
    (Obs.Fold.blocking_windows events <> []);
  (* the lifecycle folds must keep reproducing driver stats with the
     2PC events interleaved into the stream *)
  let c = Obs.Fold.counters events in
  check_int "grants fold through 2PC noise" s.Sched.Driver.grants
    c.Obs.Fold.grants;
  check_int "restarts fold through 2PC noise" s.Sched.Driver.restarts
    c.Obs.Fold.restarts

let suite =
  [
    Alcotest.test_case "happy path commits" `Quick test_happy_path;
    Alcotest.test_case "a no-vote aborts everyone" `Quick test_vote_no_aborts;
    Alcotest.test_case "equal-time events drain in enqueue order" `Quick
      test_net_equal_time_fifo;
    QCheck_alcotest.to_alcotest prop_net_drain_order;
    Alcotest.test_case "a jittered round replays from its seed" `Quick
      test_jitter_round_replays;
    Alcotest.test_case "universe rounds and fault grid pinned by digest" `Quick
      test_layer_digest;
    Alcotest.test_case "null-sink rounds allocate only state and messages"
      `Quick test_null_sink_allocation;
    Alcotest.test_case "exhaustive single-fault micro-universes (AC1-AC5)"
      `Quick test_exhaustive_universes;
    Alcotest.test_case "forget-log-on-recover rejected with witness" `Quick
      test_forget_log_rejected;
    Alcotest.test_case "presume-commit-on-timeout rejected with witness" `Quick
      test_presume_commit_rejected;
    Alcotest.test_case "250-seed crash/timeout sweep conforms" `Quick
      test_seeded_sweep;
    Alcotest.test_case "no_faults pin: compositions corpus" `Slow
      test_no_faults_decision_identical;
    Alcotest.test_case "no_faults pin: 100-seed sweep (shrinker-armed)" `Slow
      test_no_faults_sweep_with_shrinker;
    Alcotest.test_case "faulty service: abort accounting" `Quick
      test_faulty_service_accounting;
    Alcotest.test_case "coordinator-crash blocking window" `Quick
      test_coordinator_crash_blocking;
    Alcotest.test_case "blocking fold = simulator (sweep)" `Quick
      test_blocking_fold_on_sweep;
    Alcotest.test_case "sharded-2pc engine rounds flow through the trace"
      `Quick test_sharded_2pc_engine_traced;
  ]
