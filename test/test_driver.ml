(* The driver's side of the engine contract: standing refusals answered
   without asking the engine, and the stall victim's stuck list. *)

open Util
open Core

(* Every engine that publishes standing refusals, built on a sink. The
   2PC service is fresh per engine, so two builds decide alike. *)
let engines =
  let sharded ?(twopc = false) shards sink syntax =
    let commit_cross =
      if twopc then Some (Sched.Twopc.commit (Sched.Twopc.service ~sink ~shards ()))
      else None
    in
    Sched.Sharded.create ~sink ~shards ?commit_cross ~syntax ()
  in
  [
    ("SGT", fun sink syntax -> Sched.Sgt.create ~sink ~syntax ());
    ("semantic", fun sink syntax -> Sched.Semantic.create ~sink ~syntax ());
    ("sharded K=2", sharded 2);
    ("sharded K=4", sharded 4);
    ("sharded-2pc K=4", sharded ~twopc:true 4);
  ]

(* Abort-heavy hot spots, hot-key counter bumps (typed, so the semantic
   engine commutes some of them) and zipf mixes: (syntax, arrivals).
   Drawn on first use inside a test case, so a raising draw or generator
   fails the cases that use it by name instead of aborting the binary. *)
let corpus =
  lazy
  (let seeded tag gen =
    List.init 12 (fun seed ->
        let st = Random.State.make [| tag; seed |] in
        let n = 8 + Random.State.int st 9 in
        let m = 2 + Random.State.int st 4 in
        let syntax = gen st ~n ~m in
        (syntax, Combin.Interleave.random st (Syntax.format syntax)))
  in
  abort_heavy_corpus 12
  @ seeded 0xD41 (fun st ~n ~m ->
        Sim.Workload.semantic_counters st ~n ~m ~n_vars:4 ~theta:0.7
          ~read_frac:0.2)
  @ seeded 0xD42 (fun st ~n ~m ->
        Sim.Workload.zipf st ~n ~m ~n_vars:(4 + (n / 2)) ~s:1.1))

(* One traced driver run: the stats and the recorded events. *)
let traced_run mk syntax arrivals =
  let c = Obs.Sink.Memory.create () in
  let sink = Obs.Sink.Memory.sink c in
  let s =
    Sched.Driver.run ~sink (mk sink syntax) ~fmt:(Syntax.format syntax)
      ~arrivals:(Array.copy arrivals)
  in
  (s, Obs.Sink.Memory.events c)

(* Every question the driver asks gets an answer the trace shows: a
   grant, a fresh refusal (a cached one is only ever a standing one) or
   a scheduler abort. So the [attempt] calls equal those events exactly,
   and no call is for a step that stands at the time of the call. *)
let test_no_standing_question () =
  let answered = ref 0 in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun (syntax, arrivals) ->
          let calls = ref 0 and asked_standing = ref 0 in
          let counting sink syntax =
            let e = mk sink syntax in
            let standing = e.Sched.Scheduler.standing in
            {
              e with
              attempt =
                (fun (id : Names.step_id) ->
                  incr calls;
                  if standing.(id.tx) = id.idx then incr asked_standing;
                  e.attempt id);
            }
          in
          let s, events = traced_run counting syntax arrivals in
          let shown =
            List.fold_left
              (fun acc (_, ev) ->
                match ev with
                | Obs.Event.Granted _ | Obs.Event.Cycle_refused _
                | Obs.Event.Aborted { reason = Obs.Event.Scheduler_abort; _ } ->
                  acc + 1
                | _ -> acc)
              0 events
          in
          check_int (name ^ ": no standing step asked") 0 !asked_standing;
          check_int (name ^ ": attempt calls = answers in the trace") shown !calls;
          answered :=
            !answered + s.Sched.Driver.delays
            - (Obs.Fold.counters events).Obs.Fold.refusals)
        (Lazy.force corpus))
    engines;
  check_true "the driver answered standing refusals" (!answered > 0)

(* SGT with stale standing entries: [standing.(tx)] is the step last
   granted to [tx] (cleared at an abort), which the driver never asks
   for again, and [attempt] delays it, so the promise holds. A driver
   that reads an entry without comparing it to the next step skips live
   questions here; on the real engines every entry is current. *)
let stale_sgt _sink syntax =
  let e = Sched.Sgt.create ~syntax () in
  let last = Array.make (Array.length (Syntax.format syntax)) (-1) in
  {
    e with
    attempt =
      (fun (id : Names.step_id) ->
        if last.(id.tx) = id.idx then Sched.Scheduler.Delay else e.attempt id);
    commit =
      (fun (id : Names.step_id) ->
        last.(id.tx) <- id.idx;
        e.commit id);
    on_abort =
      (fun tx ->
        last.(tx) <- -1;
        e.on_abort tx);
    standing = last;
  }

(* Each engine as built against the same engine with [standing] hidden,
   which the driver must ask every question: the same event log, byte
   for byte, and the same stats. *)
let test_standing_hidden_differential () =
  let hidden mk sink syntax =
    { (mk sink syntax) with Sched.Scheduler.standing = [||] }
  in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun (syntax, arrivals) ->
          let a, ea = traced_run mk syntax arrivals in
          let b, eb = traced_run (hidden mk) syntax arrivals in
          let same what = check_true (name ^ ": same " ^ what) in
          same "event log"
            (String.equal (Obs.Event_log.to_string ea) (Obs.Event_log.to_string eb));
          same "output" (Schedule.equal a.output b.output);
          check_int (name ^ ": same delays") b.delays a.delays;
          check_int (name ^ ": same restarts") b.restarts a.restarts;
          check_int (name ^ ": same deadlocks") b.deadlocks a.deadlocks;
          check_int (name ^ ": same waiting") b.waiting a.waiting;
          check_int (name ^ ": same grants") b.grants a.grants;
          same "aborts" (a.aborts = b.aborts))
        (Lazy.force corpus))
    (engines @ [ ("SGT, stale entries", stale_sgt) ])

(* Every stuck list handed to [victim] is youngest-first by first
   arrival, strictly, and holds exactly the transactions with an
   outstanding request (every one of them is queued at a stall): those
   submitted more often than granted, replays included, in the trace so
   far. TO aborts instead of delaying, so it never stalls: its [victim]
   must never be called. *)
let test_stuck_list_order () =
  let engines =
    [
      ("SGT", true, fun syntax -> Sched.Sgt.create ~syntax ());
      ("2PL", true, fun syntax -> Sched.Tpl_sched.create_2pl ~syntax ());
      ("TO", false, fun syntax -> Sched.Timestamp.create ~syntax ());
    ]
  in
  List.iter
    (fun (name, stalls, mk) ->
      let lists = ref 0 in
      List.iter
        (fun (syntax, arrivals) ->
          let n = Array.length (Syntax.format syntax) in
          let rank = Array.make n (-1) and next = ref 0 in
          Array.iter
            (fun tx ->
              if rank.(tx) < 0 then begin
                rank.(tx) <- !next;
                incr next
              end)
            arrivals;
          let c = Obs.Sink.Memory.create () in
          let sink = Obs.Sink.Memory.sink c in
          let outstanding () =
            let o = Array.make n 0 in
            List.iter
              (fun (_, ev) ->
                match ev with
                | Obs.Event.Submitted { tx; _ } -> o.(tx) <- o.(tx) + 1
                | Obs.Event.Granted { tx; _ } -> o.(tx) <- o.(tx) - 1
                | _ -> ())
              (Obs.Sink.Memory.events c);
            List.filter (fun tx -> o.(tx) > 0) (List.init n Fun.id)
          in
          let e = mk syntax in
          let victim stuck =
            incr lists;
            let rec youngest_first = function
              | a :: (b :: _ as rest) -> rank.(a) > rank.(b) && youngest_first rest
              | _ -> true
            in
            check_true (name ^ ": stuck list youngest first") (youngest_first stuck);
            check_true (name ^ ": stuck list = transactions with a request")
              (List.sort compare stuck = outstanding ());
            e.Sched.Scheduler.victim stuck
          in
          ignore
            (Sched.Driver.run ~sink { e with victim } ~fmt:(Syntax.format syntax)
               ~arrivals:(Array.copy arrivals)))
        (abort_heavy_corpus 20);
      check_true (name ^ ": stalls iff the engine delays") (stalls = (!lists > 0)))
    engines

(* The driver's stats under every registered engine, plus a sharded
   2PC engine whose crashing rounds abort transactions while refusals
   stand, on the corpus above with the null sink: one digest over the
   output, delays, waiting, restarts, deadlocks, grants and per-
   transaction aborts of every run. A driver change that moves a count
   or a decision moves it. *)
let pinned_stats_digest = "c7f46b6361897c645e2211c135e9734b"

let test_pinned_stats () =
  let faulty ?sink syntax =
    let svc =
      Sched.Twopc.service ?sink ~crash_rate:0.2 ~seed:5 ~shards:4 ()
    in
    Sched.Sharded.create ?sink ~shards:4 ~commit_cross:(Sched.Twopc.commit svc)
      ~syntax ()
  in
  let engines =
    List.map (fun (e : Sched.Registry.entry) -> (e.name, e.make)) Sched.Registry.all
    @ [ ("sharded-2PC, crashing rounds", faulty) ]
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun (syntax, arrivals) ->
          Buffer.add_string buf name;
          match
            Sched.Driver.run (make ?sink:None syntax) ~fmt:(Syntax.format syntax)
              ~arrivals:(Array.copy arrivals)
          with
          | s ->
            Printf.bprintf buf " %s d=%d w=%d r=%d k=%d g=%d a=%s\n"
              (Schedule.to_string s.output) s.delays s.waiting s.restarts
              s.deadlocks s.grants
              (String.concat "," (Array.to_list (Array.map string_of_int s.aborts)))
          | exception Sched.Driver.Stall msg -> Printf.bprintf buf " %s\n" msg)
        (Lazy.force corpus))
    engines;
  Alcotest.(check string)
    "stats digest" pinned_stats_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The contract the driver's counted passes rest on: neither [attempt]
   nor [commit] changes another transaction's entry of [standing]. The
   engines keep more: only [attempt] sets an entry, the requester's own,
   and [on_abort] only withdraws entries (sets them to -1). Checked
   around every call each engine takes on the corpus. *)
let test_standing_contract () =
  List.iter
    (fun (name, mk) ->
      let sets = ref 0 and commits_beside = ref 0 in
      List.iter
        (fun (syntax, arrivals) ->
          let e = mk Obs.Sink.null syntax in
          let standing = e.Sched.Scheduler.standing in
          let around what own f =
            let before = Array.copy standing in
            let r = f () in
            Array.iteri
              (fun tx was ->
                let now = standing.(tx) in
                if now <> was then
                  if tx = own && what = "attempt" then incr sets
                  else if what = "on_abort" then
                    check_int (name ^ ": on_abort only withdraws") (-1) now
                  else
                    Alcotest.failf "%s: %s of T%d changed T%d's entry %d -> %d"
                      name what own tx was now)
              before;
            r
          in
          let wrapped =
            {
              e with
              attempt =
                (fun (id : Names.step_id) ->
                  around "attempt" id.tx (fun () -> e.attempt id));
              commit =
                (fun (id : Names.step_id) ->
                  if Array.exists (fun idx -> idx >= 0) standing then
                    incr commits_beside;
                  around "commit" id.tx (fun () -> e.commit id));
              on_abort =
                (fun tx -> around "on_abort" tx (fun () -> e.on_abort tx));
            }
          in
          ignore
            (Sched.Driver.run wrapped ~fmt:(Syntax.format syntax)
               ~arrivals:(Array.copy arrivals)))
        (Lazy.force corpus);
      check_true (name ^ ": attempts set entries") (!sets > 0);
      check_true (name ^ ": commits beside standing entries") (!commits_beside > 0))
    engines

(* A null-sink request allocates only the step id it asks about: with
   an engine that grants everything, [submit] ticks the clock, grants
   and logs the grant, and three minor words (the id record) per
   request is all. The warm-up grows the grant log past the 1000
   measured grants, so no growth lands in the window. A clock tick
   handed to the sink unconditionally would box a float per tick. *)
let test_request_allocation () =
  let sched =
    Sched.Scheduler.make ~name:"grant-all"
      ~attempt:(fun _ -> Sched.Scheduler.Grant)
      ~commit:ignore ()
  in
  let d = Sched.Driver.create sched ~fmt:[| 3100 |] in
  for _ = 1 to 2100 do
    Sched.Driver.submit d 0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Sched.Driver.submit d 0
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words per request" 3. (words /. 1000.);
  check_int "every request granted" 3100 (Sched.Driver.drain d).grants

(* The engine's and the driver's state in words, read after every
   [submit] of one fixed batch per engine and workload, as the
   benchmark's [state_mb] reads it after the last: the peak and the
   last reading. The driver keeps one counter for [waiting], one log
   slot per grant and two link arrays for its queue, so any bookkeeping
   added per request, per grant or per transaction moves the pins. The
   engines keep a standing refusal's witness at one word a vertex and
   read a transaction's last step off its syntax row; a vertex's first
   edge each way is a one-slot array, and a transaction holds one entry
   slot per distinct (variable, class) entry of its row, not one per
   step. The sharded one keeps one shard-local id per (transaction,
   shard) membership, and its kernels read the syntax's rows through
   their members, with no row copy per shard. Every
   transaction of the disjoint batch is single-shard at K = 4, so its
   sharded row is the engine with nothing to coordinate. *)
let test_state_words () =
  let pin name ~peak ~last make gen =
    let st = Random.State.make [| 41 |] in
    let syntax = gen st in
    let fmt = Syntax.format syntax in
    let arrivals = Combin.Interleave.random st fmt in
    let d = Sched.Driver.create (make syntax) ~fmt in
    let top = ref 0 and now = ref 0 in
    Array.iter
      (fun i ->
        Sched.Driver.submit d i;
        now := Obj.reachable_words (Obj.repr d);
        top := max !top !now)
      arrivals;
    check_int (name ^ ": peak words") peak !top;
    check_int (name ^ ": words after the last submit") last !now;
    check_true (name ^ ": drains to a schedule of the format")
      (Schedule.is_schedule_of fmt (Sched.Driver.drain d).output)
  in
  let sgt syntax = Sched.Sgt.create ~syntax () in
  pin "SGT, hotspot 16x8" ~peak:916 ~last:916 sgt (fun st ->
      Sim.Workload.hotspot st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8);
  pin "SGT, disjoint 256x2" ~peak:8232 ~last:7836 sgt (fun _ ->
      Sim.Workload.disjoint ~n:256 ~m:2);
  pin "sharded-2PC K=4, zipf 64x2" ~peak:5078 ~last:5078
    (fun syntax ->
      Sched.Sharded.create ~shards:4
        ~commit_cross:(Sched.Twopc.commit (Sched.Twopc.service ~shards:4 ()))
        ~syntax ())
    (fun st -> Sim.Workload.zipf st ~n:64 ~m:2 ~n_vars:8 ~s:1.2);
  pin "semantic, counters 16x8" ~peak:1162 ~last:1162
    (fun syntax -> Sched.Semantic.create ~syntax ())
    (fun st ->
      Sim.Workload.semantic_counters st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8
        ~read_frac:0.1);
  pin "sharded K=4, disjoint 256x2" ~peak:10859 ~last:10463
    (fun syntax -> Sched.Sharded.create ~shards:4 ~syntax ())
    (fun _ -> Sim.Workload.disjoint ~n:256 ~m:2)

(* A request past a transaction's last step is refused before anything
   is recorded: with the transaction complete, and with every one of its
   steps requested but some still queued behind a closed gate. The run
   goes on to the stats and the event log of the same run without it. *)
let test_submit_past_last_step () =
  let run_with ~extra arrivals =
    let closed = ref true in
    let sched =
      Sched.Scheduler.make ~name:"gate"
        ~attempt:(fun (id : Names.step_id) ->
          if id.tx = 1 && !closed then Sched.Scheduler.Delay
          else Sched.Scheduler.Grant)
        ~commit:ignore ()
    in
    let c = Obs.Sink.Memory.create () in
    let d =
      Sched.Driver.create ~sink:(Obs.Sink.Memory.sink c) sched ~fmt:[| 2; 2 |]
    in
    Array.iter (Sched.Driver.submit d) arrivals;
    if extra then
      List.iter
        (fun i ->
          match Sched.Driver.submit d i with
          | () -> Alcotest.failf "T%d: a request past its last step taken" i
          | exception Invalid_argument _ -> ())
        [ 0; 1 ];
    closed := false;
    let s = Sched.Driver.drain d in
    (s, Obs.Event_log.to_string (Obs.Sink.Memory.events c))
  in
  let arrivals = [| 0; 1; 0; 1 |] in
  let a, ea = run_with ~extra:true arrivals in
  let b, eb = run_with ~extra:false arrivals in
  check_true "same event log" (String.equal ea eb);
  check_true "same output" (Schedule.equal a.output b.output);
  check_int "same delays" b.delays a.delays;
  check_int "same waiting" b.waiting a.waiting;
  check_int "same grants" b.grants a.grants;
  check_true "T2 was held" (a.delays > 0)

let suite =
  [
    Alcotest.test_case "no standing question is asked" `Quick
      test_no_standing_question;
    Alcotest.test_case "standing hidden: same run" `Quick
      test_standing_hidden_differential;
    Alcotest.test_case "stuck list youngest first" `Quick test_stuck_list_order;
    Alcotest.test_case "stats pinned under every engine" `Quick test_pinned_stats;
    Alcotest.test_case "standing entries: who sets and withdraws" `Quick
      test_standing_contract;
    Alcotest.test_case "a null-sink request allocates its id only" `Quick
      test_request_allocation;
    Alcotest.test_case "state words after every submit" `Quick
      test_state_words;
    Alcotest.test_case "a request past the last step is refused" `Quick
      test_submit_past_last_step;
  ]
