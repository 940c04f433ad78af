(* Property tests for the observability primitives in [lib/obs]:
   histogram conservation and merge algebra, the §6 span invariant, and
   the ring-buffer drop accounting against a list model. *)

open Util

(* ---------- histograms ---------- *)

let hist_of values =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) values;
  h

let small_values_gen =
  QCheck.Gen.(list_size (int_range 0 40) (int_range 0 10_000))

let small_values = QCheck.make small_values_gen

let prop_hist_conservation =
  QCheck.Test.make ~count:200 ~name:"hist: count and total conserved"
    small_values (fun vs ->
      let h = hist_of vs in
      Obs.Hist.count h = List.length vs
      && Obs.Hist.total h = List.fold_left ( + ) 0 vs
      && List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Obs.Hist.buckets h)
         = List.length vs)

let prop_hist_buckets =
  QCheck.Test.make ~count:500 ~name:"hist: bucket bounds contain the value"
    (QCheck.make (QCheck.Gen.int_range 0 (1 lsl 40)))
    (fun v ->
      let k = Obs.Hist.bucket_of v in
      let lo, hi = Obs.Hist.bounds k in
      lo <= v && v <= hi && Obs.Hist.bucket_of (v + 1) >= k)

let prop_hist_merge =
  QCheck.Test.make ~count:200 ~name:"hist: merge commutative and associative"
    QCheck.(triple small_values small_values small_values)
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      Obs.Hist.equal (Obs.Hist.merge ha hb) (Obs.Hist.merge hb ha)
      && Obs.Hist.equal
           (Obs.Hist.merge (Obs.Hist.merge ha hb) hc)
           (Obs.Hist.merge ha (Obs.Hist.merge hb hc))
      && Obs.Hist.equal (Obs.Hist.merge ha hb) (hist_of (a @ b)))

let prop_hist_quantile =
  QCheck.Test.make ~count:300 ~name:"hist: quantile upper-bounds the value"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 40) (int_range 0 10_000))
           (float_range 0. 1.)))
    (fun (vs, q) ->
      let h = hist_of vs in
      let sorted = List.sort compare vs in
      let n = List.length vs in
      let target =
        max 1 (int_of_float (ceil (q *. float_of_int n)))
      in
      let exact = List.nth sorted (target - 1) in
      match Obs.Hist.quantile h q with
      | None -> false
      | Some ub ->
        ub >= exact && (if exact = 0 then ub = 0 else ub <= (2 * exact) - 1))

let test_hist_empty () =
  let h = Obs.Hist.create () in
  check_int "empty count" 0 (Obs.Hist.count h);
  check_true "empty mean" (Obs.Hist.mean h = 0.);
  check_true "empty quantile" (Obs.Hist.quantile h 0.5 = None);
  check_true "negative add rejected"
    (try
       Obs.Hist.add h (-1);
       false
     with Invalid_argument _ -> true)

(* ---------- spans ---------- *)

let phase_of_int = function
  | 0 -> Obs.Span.Scheduling
  | 1 -> Obs.Span.Waiting
  | _ -> Obs.Span.Executing

let prop_span_invariant =
  (* arbitrary phase walks with integer-valued clocks: the decomposition
     tiles the timeline, so the invariant is exact, not approximate *)
  QCheck.Test.make ~count:300
    ~name:"span: scheduling + waiting + execution = elapsed"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 30) (pair (int_range 0 5) (int_range 0 2))))
    (fun walk ->
      let sp = Obs.Span.create 1 in
      let now = ref 0. in
      List.iter
        (fun (dt, ph) ->
          now := !now +. float_of_int dt;
          Obs.Span.enter sp 0 ~now:!now (phase_of_int ph))
        walk;
      now := !now +. 1.;
      Obs.Span.finish sp 0 ~now:!now;
      let b = Obs.Span.breakdown sp 0 in
      b.Obs.Span.scheduling +. b.Obs.Span.waiting +. b.Obs.Span.execution
      = b.Obs.Span.elapsed)

let test_span_edges () =
  let sp = Obs.Span.create 2 in
  check_true "unstarted" (not (Obs.Span.started sp 0));
  let b = Obs.Span.breakdown sp 0 in
  check_true "unstarted all zero"
    (b.Obs.Span.scheduling = 0. && b.Obs.Span.elapsed = 0.);
  Obs.Span.enter sp 0 ~now:3. Obs.Span.Scheduling;
  Obs.Span.enter sp 0 ~now:5. Obs.Span.Executing;
  Obs.Span.finish sp 0 ~now:9.;
  let b = Obs.Span.breakdown sp 0 in
  check_true "scheduling credited" (b.Obs.Span.scheduling = 2.);
  check_true "execution credited" (b.Obs.Span.execution = 4.);
  check_true "elapsed from first enter" (b.Obs.Span.elapsed = 6.);
  check_true "backwards clock rejected"
    (try
       Obs.Span.enter sp 1 ~now:1. Obs.Span.Scheduling;
       Obs.Span.enter sp 1 ~now:0. Obs.Span.Waiting;
       false
     with Invalid_argument _ -> true);
  check_true "finished span frozen"
    (try
       Obs.Span.enter sp 0 ~now:10. Obs.Span.Waiting;
       false
     with Invalid_argument _ -> true);
  (* totals sums per-transaction breakdowns *)
  let t = Obs.Span.totals sp in
  check_true "totals include both" (t.Obs.Span.scheduling >= 2.)

(* ---------- sinks ---------- *)

let ev i = Obs.Event.Submitted { tx = i; idx = 0 }

let test_null_sink () =
  check_true "null is off" (not (Obs.Sink.on Obs.Sink.null));
  (* all operations are no-ops *)
  Obs.Sink.set_now Obs.Sink.null 5.;
  Obs.Sink.record Obs.Sink.null (ev 0);
  Obs.Sink.record_at Obs.Sink.null 3. (ev 1)

let test_memory_sink () =
  let c = Obs.Sink.Memory.create () in
  let sink = Obs.Sink.Memory.sink c in
  check_true "memory is on" (Obs.Sink.on sink);
  Obs.Sink.set_now sink 1.;
  Obs.Sink.record sink (ev 0);
  Obs.Sink.record_at sink 7. (ev 1);
  Obs.Sink.set_now sink 9.;
  Obs.Sink.record sink (ev 2);
  check_int "memory length" 3 (Obs.Sink.Memory.length c);
  check_true "emission order with timestamps"
    (Obs.Sink.Memory.events c = [ (1., ev 0); (7., ev 1); (9., ev 2) ]);
  Obs.Sink.Memory.clear c;
  check_int "cleared" 0 (Obs.Sink.Memory.length c)

let prop_ring_model =
  (* fixed-capacity ring vs a list model: keeps the latest [capacity]
     emissions in order and counts exactly the overwritten rest *)
  QCheck.Test.make ~count:300 ~name:"ring: differential vs list model"
    (QCheck.make QCheck.Gen.(pair (int_range 1 16) (int_range 0 64)))
    (fun (capacity, pushes) ->
      let buf = Obs.Sink.Ring.create ~capacity in
      let sink = Obs.Sink.Ring.sink buf in
      let model = ref [] in
      for i = 1 to pushes do
        Obs.Sink.record_at sink (float_of_int i) (ev i);
        model := (float_of_int i, ev i) :: !model
      done;
      let keep = min pushes capacity in
      let expect =
        List.rev
          (List.filteri (fun k _ -> k < keep) !model)
      in
      Obs.Sink.Ring.events buf = expect
      && Obs.Sink.Ring.length buf = keep
      && Obs.Sink.Ring.dropped buf = max 0 (pushes - capacity)
      && Obs.Sink.Ring.capacity buf = capacity)

let test_ring_clear () =
  let buf = Obs.Sink.Ring.create ~capacity:2 in
  let sink = Obs.Sink.Ring.sink buf in
  for i = 1 to 5 do
    Obs.Sink.record_at sink (float_of_int i) (ev i)
  done;
  check_int "dropped before clear" 3 (Obs.Sink.Ring.dropped buf);
  Obs.Sink.Ring.clear buf;
  check_int "cleared length" 0 (Obs.Sink.Ring.length buf);
  check_int "cleared dropped" 0 (Obs.Sink.Ring.dropped buf);
  check_true "bad capacity rejected"
    (try
       ignore (Obs.Sink.Ring.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ---------- event-log round trip ---------- *)

let log_fixture =
  (* one event of every shape, with timestamps that exercise the
     17-digit float round trip *)
  [
    (0., Obs.Event.Submitted { tx = 0; idx = 0 });
    (1.5, Obs.Event.Delayed { tx = 0; idx = 0 });
    (2.7182818284590452, Obs.Event.Granted { tx = 0; idx = 0 });
    (3.1, Obs.Event.Executed { tx = 0; idx = 0 });
    (4., Obs.Event.Aborted { tx = 1; reason = Obs.Event.Deadlock });
    (4., Obs.Event.Aborted { tx = 2; reason = Obs.Event.Scheduler_abort });
    (5., Obs.Event.Restarted { tx = 1 });
    (6., Obs.Event.Committed { tx = 0 });
    (7., Obs.Event.Edge_added { src = 1; dst = 2 });
    (8., Obs.Event.Cycle_refused { tx = 1; idx = 1 });
    (9., Obs.Event.Lock_acquired { tx = 1; lock = "x" });
    (10., Obs.Event.Lock_released { tx = 1; lock = "x" });
    (11., Obs.Event.Wound { victim = 2 });
    (12., Obs.Event.Ts_refused { tx = 2; idx = 0 });
    (13., Obs.Event.Shard_routed { tx = 2; idx = 0; shard = 3 });
    (13.25, Obs.Event.Commute_pass { tx = 1; idx = 2; skipped = 3 });
    (13.5, Obs.Event.Snapshot_taken { tx = 1; ts = 4 });
    (13.5, Obs.Event.Version_read { tx = 1; var = "x"; value = -2 });
    (13.75, Obs.Event.Version_installed { tx = 1; var = "q'"; value = 7 });
    (13.75, Obs.Event.Ww_refused { tx = 1; var = "x" });
    (13.875, Obs.Event.Pivot_refused { tx = 1; cyclic = true });
    (13.875, Obs.Event.Pivot_refused { tx = 2; cyclic = false });
    (* the 2PC vocabulary: every payload shape at least once *)
    (14., Obs.Event.Twopc_sent { tx = 2; src = 4; dst = 0; msg = Obs.Event.Prepare });
    (14.5, Obs.Event.Twopc_delivered { tx = 2; src = 4; dst = 0; msg = Obs.Event.Prepare });
    (15., Obs.Event.Twopc_sent { tx = 2; src = 0; dst = 4; msg = Obs.Event.Vote true });
    (15.5, Obs.Event.Twopc_delivered { tx = 2; src = 1; dst = 4; msg = Obs.Event.Vote false });
    (16., Obs.Event.Twopc_timeout { tx = 2; node = 4; timer = "vote" });
    (16.5, Obs.Event.Twopc_sent { tx = 2; src = 4; dst = 0; msg = Obs.Event.Decision false });
    (17., Obs.Event.Twopc_delivered { tx = 2; src = 4; dst = 0; msg = Obs.Event.Decision true });
    (17.5, Obs.Event.Twopc_decided { tx = 2; node = 4; commit = false });
    (18., Obs.Event.Node_crashed { tx = 2; node = 0 });
    (18.5, Obs.Event.Node_recovered { tx = 2; node = 0 });
    (19., Obs.Event.Twopc_sent { tx = 2; src = 0; dst = 4; msg = Obs.Event.Decision_req });
    (19.5, Obs.Event.Twopc_sent { tx = 2; src = 0; dst = 4; msg = Obs.Event.Ack });
    (20., Obs.Event.Twopc_decided { tx = 2; node = 0; commit = true });
  ]

let test_event_log_roundtrip () =
  check_int "fixture covers every constructor" 26
    (List.length
       (List.sort_uniq compare
          (List.map (fun (_, e) -> fst (Obs.Event.fields e)) log_fixture)));
  let text = Obs.Event_log.to_string ~dropped:5 log_fixture in
  (match Obs.Event_log.parse text with
  | Ok (events, dropped) ->
    check_true "events round-trip" (events = log_fixture);
    check_int "dropped round-trips" 5 dropped
  | Error msg -> Alcotest.fail msg);
  (* default dropped is 0; blank lines and unknown comments tolerated *)
  match Obs.Event_log.parse ("\n" ^ Obs.Event_log.to_string log_fixture ^ "# future metadata\n") with
  | Ok (events, dropped) ->
    check_true "events round-trip (default)" (events = log_fixture);
    check_int "dropped defaults to 0" 0 dropped
  | Error msg -> Alcotest.fail msg

let test_event_log_rejects () =
  let reject name text =
    match Obs.Event_log.parse text with
    | Ok _ -> Alcotest.fail (name ^ ": malformed log accepted")
    | Error msg -> check_true (name ^ " error cites a line")
        (String.length msg > 0)
  in
  reject "missing header" "0 submitted tx=0 idx=0\n";
  reject "future version" "# ccopt-events 2\n";
  reject "unknown event" "# ccopt-events 1\n0 teleported tx=0\n";
  reject "missing field" "# ccopt-events 1\n0 submitted tx=0\n";
  reject "bad integer" "# ccopt-events 1\n0 submitted tx=zero idx=0\n";
  reject "bad timestamp" "# ccopt-events 1\nnever submitted tx=0 idx=0\n";
  reject "bad abort reason" "# ccopt-events 1\n0 aborted tx=0 reason=tired\n";
  reject "bad 2PC payload"
    "# ccopt-events 1\n0 twopc-sent tx=0 src=0 dst=1 msg=carrier-pigeon\n";
  reject "bad 2PC commit flag"
    "# ccopt-events 1\n0 twopc-decided tx=0 node=1 commit=maybe\n";
  reject "negative dropped" "# ccopt-events 1\n# dropped -1\n";
  (* two # dropped headers: concatenated or hand-edited logs; the old
     parser silently let the last one win *)
  reject "duplicate dropped header"
    "# ccopt-events 1\n# dropped 1\n# dropped 2\n0 submitted tx=0 idx=0\n";
  (* a final line without its newline is a log truncated mid-write, not
     a complete event; the old parser accepted it as data *)
  reject "missing trailing newline"
    "# ccopt-events 1\n# dropped 0\n0 submitted tx=0 idx=0";
  reject "unterminated header" "# ccopt-events 1"

let test_event_log_error_positions () =
  (* structural errors carry the offending line number *)
  let line_of text =
    match Obs.Event_log.parse text with
    | Ok _ -> Alcotest.fail "malformed log accepted"
    | Error msg ->
      check_true "error cites a line"
        (String.length msg > 5 && String.sub msg 0 5 = "line ");
      int_of_string (String.sub msg 5 (String.index msg ':' - 5))
  in
  check_int "duplicate dropped cites its own line" 3
    (line_of "# ccopt-events 1\n# dropped 1\n# dropped 2\n");
  check_int "truncated final line cited" 3
    (line_of "# ccopt-events 1\n# dropped 0\n0 submitted tx=0 idx=0");
  (* the truncation error wins over the line's own malformation: the
     data may simply be cut short *)
  check_int "truncated malformed line cited" 2
    (line_of "# ccopt-events 1\n0 submitted tx=")

(* ---------- event-log fuzz: parse ∘ print = id ---------- *)

let any_event_gen =
  QCheck.Gen.(
    let id = int_range 0 9 in
    let payload =
      oneofl
        [
          Obs.Event.Prepare;
          Obs.Event.Vote true;
          Obs.Event.Vote false;
          Obs.Event.Decision true;
          Obs.Event.Decision false;
          Obs.Event.Ack;
          Obs.Event.Decision_req;
        ]
    in
    let timer = oneofl [ "prepare"; "vote"; "decision"; "ack" ] in
    (* any non-blank printable name, '=' and the empty name included *)
    let name = string_size ~gen:(char_range '!' '~') (int_range 0 3) in
    oneof
      [
        map2 (fun tx idx -> Obs.Event.Submitted { tx; idx }) id id;
        map2 (fun tx idx -> Obs.Event.Delayed { tx; idx }) id id;
        map2 (fun tx idx -> Obs.Event.Granted { tx; idx }) id id;
        map2 (fun tx idx -> Obs.Event.Executed { tx; idx }) id id;
        map2
          (fun tx dl ->
            Obs.Event.Aborted
              {
                tx;
                reason =
                  (if dl then Obs.Event.Deadlock
                   else Obs.Event.Scheduler_abort);
              })
          id bool;
        map (fun tx -> Obs.Event.Restarted { tx }) id;
        map (fun tx -> Obs.Event.Committed { tx }) id;
        map2 (fun src dst -> Obs.Event.Edge_added { src; dst }) id id;
        map2 (fun tx idx -> Obs.Event.Cycle_refused { tx; idx }) id id;
        map2 (fun tx idx -> Obs.Event.Shard_routed { tx; idx; shard = 1 }) id id;
        map3
          (fun tx idx skipped -> Obs.Event.Commute_pass { tx; idx; skipped })
          id id id;
        map2 (fun tx lock -> Obs.Event.Lock_acquired { tx; lock }) id name;
        map2 (fun tx lock -> Obs.Event.Lock_released { tx; lock }) id name;
        map (fun victim -> Obs.Event.Wound { victim }) id;
        map2 (fun tx idx -> Obs.Event.Ts_refused { tx; idx }) id id;
        map2 (fun tx ts -> Obs.Event.Snapshot_taken { tx; ts }) id id;
        map3
          (fun tx var value -> Obs.Event.Version_read { tx; var; value })
          id name int;
        map3
          (fun tx var value -> Obs.Event.Version_installed { tx; var; value })
          id name int;
        map2 (fun tx var -> Obs.Event.Ww_refused { tx; var }) id name;
        map2 (fun tx cyclic -> Obs.Event.Pivot_refused { tx; cyclic }) id bool;
        map3
          (fun tx src msg -> Obs.Event.Twopc_sent { tx; src; dst = src + 1; msg })
          id id payload;
        map3
          (fun tx src msg ->
            Obs.Event.Twopc_delivered { tx; src; dst = src + 1; msg })
          id id payload;
        map3
          (fun tx node commit -> Obs.Event.Twopc_decided { tx; node; commit })
          id id bool;
        map3
          (fun tx node timer -> Obs.Event.Twopc_timeout { tx; node; timer })
          id id timer;
        map2 (fun tx node -> Obs.Event.Node_crashed { tx; node }) id id;
        map2 (fun tx node -> Obs.Event.Node_recovered { tx; node }) id id;
      ])

let trace_gen =
  QCheck.Gen.(
    pair (int_range 0 5)
      (list_size (int_range 0 60)
         (pair (map (fun i -> float_of_int i /. 7.) (int_range 0 10_000))
            any_event_gen)))

let prop_log_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"event log: parse ∘ print = id on fuzzed traces (incl. 2PC)"
    (QCheck.make trace_gen)
    (fun (dropped, events) ->
      match Obs.Event_log.parse (Obs.Event_log.to_string ~dropped events) with
      | Ok (es, d) -> es = events && d = dropped
      | Error _ -> false)

(* ---------- the field table's other readers ---------- *)

(* [map_tx] rewrites the Tx fields and nothing else *)
let prop_map_tx =
  QCheck.Test.make ~count:300 ~name:"map_tx: identity, and Tx fields only"
    (QCheck.make any_event_gen)
    (fun ev ->
      let f t = (3 * t) + 1 in
      let name, fs = Obs.Event.fields ev in
      let name', fs' = Obs.Event.fields (Obs.Event.map_tx f ev) in
      Obs.Event.map_tx Fun.id ev = ev
      && name' = name
      && fs'
         = List.map
             (fun (k, v) ->
               (k, match v with Obs.Event.Tx t -> Obs.Event.Tx (f t) | v -> v))
             fs)

let test_event_text () =
  Alcotest.(check string)
    "text form is the log body" "lock-acquired tx=1 lock=y"
    (Obs.Event.to_string (Obs.Event.Lock_acquired { tx = 1; lock = "y" }));
  (* a blank name would print as [lock= ] and read back as [""] *)
  List.iter
    (fun ev ->
      check_true "blank string field refused"
        (match Obs.Event_log.to_string [ (0., ev) ] with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      Obs.Event.Lock_acquired { tx = 0; lock = " " };
      Obs.Event.Version_read { tx = 0; var = "a b"; value = 0 };
      Obs.Event.Ww_refused { tx = 0; var = "x\n" };
    ]

(* a log of another system must not fold into a history of this one *)
let test_history_rejects_foreign_ids () =
  let syntax = Analysis.Analyze.parse_syntax "xy,yx" in
  let rejects name events =
    check_true name
      (match
         Sim.Check_fuzz.history_of_events ~label:name syntax
           (List.map (fun e -> (0., e)) events)
       with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "multi-version trace, tx=3"
    [
      Obs.Event.Version_read { tx = 3; var = "q"; value = 1 };
      Obs.Event.Committed { tx = 3 };
    ];
  rejects "single-version trace, tx=7"
    [
      Obs.Event.Submitted { tx = 7; idx = 0 };
      Obs.Event.Granted { tx = 7; idx = 0 };
      Obs.Event.Executed { tx = 7; idx = 0 };
      Obs.Event.Committed { tx = 7 };
    ];
  rejects "single-version trace, idx=5"
    [
      Obs.Event.Submitted { tx = 0; idx = 5 };
      Obs.Event.Granted { tx = 0; idx = 5 };
      Obs.Event.Executed { tx = 0; idx = 5 };
      Obs.Event.Committed { tx = 0 };
    ]

(* ---------- ring truncation propagates to checker Unknown ---------- *)

let test_ring_truncation_unknown () =
  (* record a real contended run through a ring too small for it: the
     drop counter is the only evidence entire transactions may be gone,
     so the reconstructed history must be marked incomplete and the
     checker must answer Unknown at every level instead of risking a
     false verdict *)
  let syntax =
    Core.Syntax.of_lists
      [ [ "x"; "y" ]; [ "y"; "x" ]; [ "x"; "z" ]; [ "z"; "y" ] ]
  in
  let run =
    Sim.Check_fuzz.record ~capacity:8 ~label:"ring-truncated" ~seed:2 syntax
      (fun sink -> Sched.Sgt.create ~sink ~syntax ())
  in
  check_true "the ring actually dropped" (run.Sim.Check_fuzz.dropped > 0);
  let h = run.Sim.Check_fuzz.history in
  check_true "marked incomplete" (not (Analysis.History.complete h));
  List.iter
    (fun (r : Analysis.Checker.result) ->
      match r.Analysis.Checker.verdict with
      | Analysis.Checker.Unknown _ -> ()
      | _ -> Alcotest.fail "truncated trace produced a definite verdict")
    (Analysis.Checker.check_all h)

(* ---------- history reconstruction from lifecycle traces ---------- *)

let lifecycle tx steps =
  (* a complete incarnation: submit/grant/execute per step, then commit *)
  List.concat_map
    (fun idx ->
      [
        Obs.Event.Submitted { tx; idx };
        Obs.Event.Granted { tx; idx };
        Obs.Event.Executed { tx; idx };
      ])
    steps
  @ [ Obs.Event.Committed { tx } ]

let stamp events = List.mapi (fun i e -> (float_of_int i, e)) events

let test_fold_history () =
  let events = stamp (lifecycle 0 [ 0; 1 ] @ lifecycle 1 [ 0 ]) in
  let fh = Obs.Fold.history events in
  check_true "steps in execution order"
    (fh.Obs.Fold.steps = [ (0, 0); (0, 1); (1, 0) ]);
  check_true "commits recorded" (fh.Obs.Fold.commits = [ 0; 1 ]);
  check_false "complete trace not truncated" fh.Obs.Fold.truncated;
  (* an aborted incarnation's steps are discarded, the retry's kept *)
  let with_restart =
    stamp
      ([
         Obs.Event.Submitted { tx = 0; idx = 0 };
         Obs.Event.Granted { tx = 0; idx = 0 };
         Obs.Event.Executed { tx = 0; idx = 0 };
         Obs.Event.Aborted { tx = 0; reason = Obs.Event.Scheduler_abort };
         Obs.Event.Restarted { tx = 0 };
       ]
      @ lifecycle 0 [ 0; 1 ])
  in
  let fh = Obs.Fold.history with_restart in
  check_true "aborted incarnation discarded"
    (fh.Obs.Fold.steps = [ (0, 0); (0, 1) ]);
  check_false "restart is not truncation" fh.Obs.Fold.truncated

let test_fold_history_truncated () =
  (* first recorded execution of an incarnation is not step 0: the
     trace starts mid-stream and must say so *)
  let mid = stamp (lifecycle 0 [ 1; 2 ]) in
  check_true "mid-transaction start flagged"
    (Obs.Fold.history mid).Obs.Fold.truncated;
  (* a commit with no recorded executions at all *)
  let bare = stamp [ Obs.Event.Committed { tx = 3 } ] in
  check_true "bare commit flagged" (Obs.Fold.history bare).Obs.Fold.truncated;
  (* uncommitted steps are dropped from the reconstruction but do not
     count as truncation by themselves *)
  let uncommitted =
    stamp
      (lifecycle 0 [ 0 ]
      @ [
          Obs.Event.Submitted { tx = 1; idx = 0 };
          Obs.Event.Granted { tx = 1; idx = 0 };
          Obs.Event.Executed { tx = 1; idx = 0 };
        ])
  in
  let fh = Obs.Fold.history uncommitted in
  check_true "only committed steps kept" (fh.Obs.Fold.steps = [ (0, 0) ]);
  check_true "only committed txns listed" (fh.Obs.Fold.commits = [ 0 ]);
  check_false "in-flight work is not truncation" fh.Obs.Fold.truncated

(* ---------- JSON ---------- *)

(* Trees with every control character, the quote and the backslash in
   keys and strings, and numbers in every shape the grammar allows. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    let chars =
      Array.of_list
        (List.init 32 Char.chr @ [ '"'; '\\'; 'a'; 'z'; ' '; '/'; '\xc3'; '\xa9' ])
    in
    string_size ~gen:(map (Array.get chars) (int_bound (Array.length chars - 1)))
      (int_bound 8)
  in
  let num =
    oneof
      [
        map string_of_int int;
        map (Printf.sprintf "%.3f") (float_range (-1e3) 1e3);
        map2 (Printf.sprintf "%de%d") (int_range (-9) 9) (int_range (-20) 20);
        map (Printf.sprintf "-0.5E+%d") (int_bound 9);
      ]
  in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun s -> Obs.Json.Num s) num;
        map (fun s -> Obs.Json.Str s) str;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Obs.Json.Arr l) (list_size (int_bound 4) (self (n - 1))));
               ( 2,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (n - 1)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: parse inverts every layout"
    (QCheck.make json_gen) (fun t ->
      let back s = Obs.Json.parse s = Some t in
      back (Obs.Json.compact t)
      && back (Obs.Json.compact ~spaced:true t)
      && back (Obs.Json.pretty t)
      && back (Obs.Json.pretty (Obs.Json.Line t)))

let test_json_escape () =
  let all = String.init 34 (fun i -> if i < 32 then Char.chr i else "\"\\".[i - 32]) in
  let e = Obs.Json.escape all in
  check_true "no raw control character survives"
    (String.for_all (fun c -> Char.code c >= 0x20) e);
  check_true "tab and newline use short escapes"
    (Obs.Json.escape "\t\n" = "\\t\\n");
  check_true "other controls use \\u00XX" (Obs.Json.escape "\001\031" = "\\u0001\\u001f");
  check_true "quote and backslash" (Obs.Json.escape "\"\\" = "\\\"\\\\");
  check_true "UTF-8 passes through" (Obs.Json.escape "\xc3\xa9" = "\xc3\xa9")

let test_json_rejects () =
  List.iter
    (fun s ->
      check_true ("rejected: " ^ String.escaped s) (Obs.Json.parse s = None))
    [
      (* unterminated strings *)
      "\"abc"; "{\"a\": \"x}"; "[\"a\\\"]";
      (* bad escapes *)
      "\"\\u12G4\""; "\"\\u12\""; "\"\\q\"";
      (* trailing garbage *)
      "{} x"; "1 2"; "[1] ]"; "null,";
      (* bare closers and broken structure *)
      "}"; "]"; ""; "  "; "{\"a\" 1}"; "{\"a\": 1,}"; "[1,]"; "{,}"; "[,1]";
      "{1: 2}";
      (* bad literals and numbers *)
      "tru"; "nul"; "-"; "1."; ".5"; "1e"; "+1"; "1e+";
    ];
  List.iter
    (fun (s, v) -> check_true ("accepted: " ^ s) (Obs.Json.parse s = Some v))
    [
      (" {} ", Obs.Json.Obj []);
      ("[ ]", Obs.Json.Arr []);
      ("\"\\u00e9\\/\"", Obs.Json.Str "\xc3\xa9/");
      ("-0.50e+3", Obs.Json.Num "-0.50e+3");
      ("{\"a\":{\"b\":[true,false,null]}}",
       Obs.Json.Obj
         [ ("a", Obs.Json.Obj [ ("b", Obs.Json.Arr [ Obs.Json.Bool true; Obs.Json.Bool false; Obs.Json.Null ]) ]) ]);
    ]

let test_json_layouts () =
  let t =
    Obs.Json.(
      Obj
        [ ("a", int 1);
          ("b", Arr [ num "%.2f" 0.5; Str "x" ]);
          ("c", Line (Obj [ ("d", Arr [ int 2; int 3 ]) ])) ])
  in
  Alcotest.(check string) "compact" {|{"a":1,"b":[0.50,"x"],"c":{"d":[2,3]}}|}
    (Obs.Json.compact t);
  Alcotest.(check string) "spaced"
    {|{"a": 1, "b": [0.50, "x"], "c": {"d": [2, 3]}}|}
    (Obs.Json.compact ~spaced:true t);
  Alcotest.(check string) "pretty"
    "{\n  \"a\": 1,\n  \"b\": [\n    0.50,\n    \"x\"\n  ],\n  \"c\": { \"d\": [2, 3] }\n}\n"
    (Obs.Json.pretty t)

let suite =
  [
    Alcotest.test_case "hist empty and errors" `Quick test_hist_empty;
    Alcotest.test_case "event log round trip" `Quick test_event_log_roundtrip;
    Alcotest.test_case "event log rejects junk" `Quick test_event_log_rejects;
    Alcotest.test_case "event log error positions" `Quick
      test_event_log_error_positions;
    Alcotest.test_case "event text form and blank fields" `Quick
      test_event_text;
    Alcotest.test_case "history rejects foreign ids" `Quick
      test_history_rejects_foreign_ids;
    Alcotest.test_case "ring truncation checks Unknown" `Quick
      test_ring_truncation_unknown;
    Alcotest.test_case "history from lifecycle trace" `Quick
      test_fold_history;
    Alcotest.test_case "history truncation evidence" `Quick
      test_fold_history_truncated;
    Alcotest.test_case "span edge cases" `Quick test_span_edges;
    Alcotest.test_case "null sink" `Quick test_null_sink;
    Alcotest.test_case "memory sink" `Quick test_memory_sink;
    Alcotest.test_case "ring clear and errors" `Quick test_ring_clear;
    Alcotest.test_case "json escape" `Quick test_json_escape;
    Alcotest.test_case "json rejects malformed input" `Quick test_json_rejects;
    Alcotest.test_case "json layouts" `Quick test_json_layouts;
  ]
  @ qsuite
      [
        prop_hist_conservation;
        prop_hist_buckets;
        prop_hist_merge;
        prop_hist_quantile;
        prop_span_invariant;
        prop_ring_model;
        prop_log_roundtrip;
        prop_map_tx;
        prop_json_roundtrip;
      ]
