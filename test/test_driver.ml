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
   engine commutes some of them) and zipf mixes: (syntax, arrivals). *)
let corpus =
  let seeded tag gen =
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
        Sim.Workload.zipf st ~n ~m ~n_vars:(4 + (n / 2)) ~s:1.1)

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
        corpus)
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
        corpus)
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

let suite =
  [
    Alcotest.test_case "no standing question is asked" `Quick
      test_no_standing_question;
    Alcotest.test_case "standing hidden: same run" `Quick
      test_standing_hidden_differential;
    Alcotest.test_case "stuck list youngest first" `Quick test_stuck_list_order;
  ]
