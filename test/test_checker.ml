(* The black-box consistency checker ([Analysis.Checker]) against its
   independent oracles.

   Three layers of evidence, mirroring DESIGN.md "Checking histories":
   hand-built histories with known verdicts at every level (write skew
   sits exactly between SI and SER, the classic cross read between
   causal and everything below), the exhaustive small-universe
   differential against the Herbrand oracle plus brute-force
   permutation ground truth ([Sim.Check_fuzz.exhaustive]), and the
   100-seed every-scheduler sweep in which each committed history must
   check out at every level up to the engine's declared one, the
   trace-reconstructed schedule must equal the driver's, every seeded
   mutant of a serializable history must be rejected with a replaying
   witness, and SI must be caught committing at least one write skew
   ([Sim.Check_fuzz.sweep]). *)

open Util
open Core
module H = Analysis.History
module C = Analysis.Checker

let syn = Analysis.Analyze.parse_syntax

let hist spec digits =
  let syntax = syn spec in
  let h = Schedule.of_interleaving (Analysis.Analyze.parse_interleaving digits) in
  check_true "schedule of the syntax"
    (Schedule.is_schedule_of (Syntax.format syntax) h);
  H.of_schedule ~label:(spec ^ " @ " ^ digits) syntax h

let verdicts h = List.map (fun r -> (r.C.level, r.C.verdict)) (C.check_all h)

let is_violation = function C.Violation _ -> true | _ -> false
let is_consistent = function C.Consistent _ -> true | _ -> false

(* every Violation must carry a witness the oracles replay; every
   Consistent order must validate *)
let replayable label h (r : C.result) =
  match r.C.verdict with
  | C.Consistent order ->
    check_true (label ^ " order validates") (C.validate_order h r.C.level order)
  | C.Violation (C.Cycle edges) ->
    check_true (label ^ " cycle replays") (C.replay_cycle h r.C.level edges)
  | C.Violation (C.No_order _) ->
    let checked =
      if r.C.level = C.Snapshot_isolation then C.split_si h else h
    in
    if H.n checked <= 8 then
      check_false (label ^ " no-order confirmed") (C.exists_order h r.C.level)
  | C.Violation w ->
    check_true (label ^ " well-formedness witness re-derives")
      (List.mem w (C.well_formed h))
  | C.Unknown _ -> ()

let check_replayable label h = List.iter (replayable label h) (C.check_all h)

(* ---------- hand-built verdict fixtures ---------- *)

let test_classic_cross () =
  (* xy,yx @ 0101: T1 and T2 each read what the other overwrites — the
     textbook non-serializable interleaving, inconsistent at every
     level down to RC *)
  let h = hist "xy,yx" "0101" in
  List.iter
    (fun (level, v) ->
      check_true (C.level_name level ^ " violated") (is_violation v))
    (verdicts h);
  check_replayable "cross" h;
  (* the serial orders of the same syntax are consistent everywhere *)
  List.iter
    (fun digits ->
      let h = hist "xy,yx" digits in
      List.iter
        (fun (level, v) ->
          check_true
            (digits ^ " " ^ C.level_name level ^ " consistent")
            (is_consistent v))
        (verdicts h);
      check_replayable digits h)
    [ "0011"; "1100" ]

let test_write_skew () =
  (* both read both variables' initial values, then write disjointly:
     consistent under causal and SI, non-serializable — the level that
     separates SI from SER *)
  let init = H.initial_value in
  let h =
    H.make ~label:"write-skew"
      [
        [ [ { H.kind = H.R; var = "x"; value = init };
            { H.kind = H.R; var = "y"; value = init };
            { H.kind = H.W; var = "x"; value = 1 } ] ];
        [ [ { H.kind = H.R; var = "x"; value = init };
            { H.kind = H.R; var = "y"; value = init };
            { H.kind = H.W; var = "y"; value = 2 } ] ];
      ]
  in
  List.iter
    (fun (level, v) ->
      let name = C.level_name level in
      match level with
      | C.Serializability ->
        check_true ("write skew " ^ name) (is_violation v)
      | _ -> check_true ("write skew " ^ name) (is_consistent v))
    (verdicts h);
  check_replayable "write-skew" h

let test_causal_violation () =
  (* T2 reads T1's write of x in session order after it, but a third
     session reads the two writes against causality: y's read sees T2
     while x's read still sees the initial value, yet T2 causally
     depends on T1's x-write. Violates causal (and above), passes RA. *)
  let init = H.initial_value in
  let h =
    H.make ~label:"causal-skip"
      [
        [ [ { H.kind = H.W; var = "x"; value = 1 } ];
          [ { H.kind = H.W; var = "y"; value = 2 } ] ];
        [ [ { H.kind = H.R; var = "y"; value = 2 };
            { H.kind = H.R; var = "x"; value = init };
            { H.kind = H.W; var = "z"; value = 3 } ] ];
      ]
  in
  List.iter
    (fun (level, v) ->
      let name = C.level_name level in
      match level with
      | C.Read_committed | C.Read_atomic ->
        check_true ("causal-skip " ^ name) (is_consistent v)
      | _ -> check_true ("causal-skip " ^ name) (is_violation v))
    (verdicts h);
  check_replayable "causal-skip" h

let test_level_ladder () =
  (* SER => SI => causal => RA => RC on a mixed bag of histories *)
  let order l =
    let rec idx i = function
      | [] -> assert false
      | x :: _ when x = l -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 C.levels
  in
  List.iter
    (fun h ->
      let vs = verdicts h in
      List.iter
        (fun (l1, v1) ->
          List.iter
            (fun (l2, v2) ->
              if order l1 <= order l2 && is_violation v1 then
                check_true
                  (H.label h ^ ": violation at " ^ C.level_name l1
                 ^ " implies violation at " ^ C.level_name l2)
                  (is_violation v2))
            vs)
        vs)
    [ hist "xy,yx" "0101"; hist "xx,x" "010"; hist "xyz,zx,yz" "0102012" ]

(* ---------- trace reconstruction ---------- *)

let run_history ?capacity syntax seed =
  let e = Sched.Registry.find_exn "sgt" in
  let r =
    Sim.Check_fuzz.record ?capacity ~label:"sgt" ~seed syntax (fun sink ->
        e.Sched.Registry.make ~sink syntax)
  in
  (r.Sim.Check_fuzz.stats, r.Sim.Check_fuzz.events, r.Sim.Check_fuzz.dropped)

let test_fold_matches_driver () =
  let syntax = syn "xyz,zx,yz" in
  let stats, events, dropped = run_history syntax 42 in
  check_int "complete ring" 0 dropped;
  let fh = Obs.Fold.history events in
  check_false "not truncated" fh.Obs.Fold.truncated;
  let want =
    List.map
      (fun s -> (s.Names.tx, s.Names.idx))
      (Array.to_list stats.Sched.Driver.output)
  in
  check_true "reconstructed schedule = driver output" (fh.Obs.Fold.steps = want);
  check_true "all committed"
    (fh.Obs.Fold.commits = List.init (Syntax.n_transactions syntax) Fun.id);
  let h = H.of_steps ~complete:true syntax fh.Obs.Fold.steps in
  List.iter
    (fun (level, v) ->
      check_true ("sgt run " ^ C.level_name level) (is_consistent v))
    (verdicts h)

let test_truncated_unknown () =
  (* a ring too small for the run: the reconstruction is not a faithful
     witness, so the checker must answer Unknown at every level — never
     a false Consistent or Violation *)
  let syntax = syn "xxy,yx,xyy" in
  let _, events, dropped = run_history ~capacity:4 syntax 42 in
  check_true "ring truncated" (dropped > 0);
  let fh = Obs.Fold.history events in
  let complete = dropped = 0 && not fh.Obs.Fold.truncated in
  check_false "reconstruction incomplete" complete;
  let h = H.of_steps ~complete syntax fh.Obs.Fold.steps in
  List.iter
    (fun (level, v) ->
      check_true
        ("truncated " ^ C.level_name level ^ " unknown")
        (match v with C.Unknown _ -> true | _ -> false))
    (verdicts h)

let test_midstream_flag () =
  (* even without the ring's drop counter, an execution stream that
     starts mid-transaction is evidence of truncation on its own *)
  let _, events, dropped = run_history (syn "xyz,zx,yz") 7 in
  check_int "baseline complete" 0 dropped;
  let rec chop k l = if k = 0 then l else chop (k - 1) (List.tl l) in
  let fh = Obs.Fold.history (chop 5 events) in
  check_true "mid-stream trace flagged" fh.Obs.Fold.truncated

(* ---------- mutations ---------- *)

let test_mutants_rejected () =
  let h =
    H.generate ~seed:11 ~sessions:3 ~txns:12 ~steps:3 ~n_vars:4
  in
  List.iter
    (fun (level, v) ->
      check_true ("generated " ^ C.level_name level) (is_consistent v))
    (verdicts h);
  List.iter
    (fun kind ->
      let name = H.mutation_name kind in
      match H.mutate kind (rng 3) h with
      | None -> Alcotest.fail (name ^ " found no site on a 12-txn history")
      | Some bad -> (
        let r = C.check bad C.Serializability in
        match r.C.verdict with
        | C.Violation _ -> replayable ("mutant " ^ name) bad r
        | C.Consistent _ -> Alcotest.fail (name ^ " mutant accepted")
        | C.Unknown msg -> Alcotest.fail (name ^ " mutant unknown: " ^ msg)))
    H.mutations

(* ---------- the fuzzing differentials ---------- *)

let test_exhaustive () =
  let o = Sim.Check_fuzz.exhaustive () in
  List.iter print_endline o.Sim.Check_fuzz.failures;
  check_true "exhaustive failures" (o.Sim.Check_fuzz.failures = []);
  check_true "herbrand coverage" (o.Sim.Check_fuzz.herbrand_agreed > 100);
  check_int "exhaustive mutants rejected" o.Sim.Check_fuzz.mutants_total
    o.Sim.Check_fuzz.mutants_rejected

let test_sweep () =
  let o = Sim.Check_fuzz.sweep ~seeds:100 () in
  List.iter print_endline o.Sim.Check_fuzz.failures;
  check_true "sweep failures" (o.Sim.Check_fuzz.failures = []);
  check_int "sweep runs"
    (100 * List.length (Sim.Check_fuzz.engines (syn "xy,yx")))
    o.Sim.Check_fuzz.runs;
  check_true "sweep mutants exist" (o.Sim.Check_fuzz.mutants_total > 0);
  check_int "sweep mutants rejected" o.Sim.Check_fuzz.mutants_total
    o.Sim.Check_fuzz.mutants_rejected;
  check_true "sweep herbrand coverage" (o.Sim.Check_fuzz.herbrand_agreed > 100);
  check_true "si write skew reachable" (o.Sim.Check_fuzz.si_write_skews > 0)

let suite =
  [
    Alcotest.test_case "classic cross at every level" `Quick
      test_classic_cross;
    Alcotest.test_case "write skew separates SI from SER" `Quick
      test_write_skew;
    Alcotest.test_case "causal violation above RA" `Quick
      test_causal_violation;
    Alcotest.test_case "level ladder monotone" `Quick test_level_ladder;
    Alcotest.test_case "trace reconstruction = driver output" `Quick
      test_fold_matches_driver;
    Alcotest.test_case "truncated trace checks unknown" `Quick
      test_truncated_unknown;
    Alcotest.test_case "mid-stream trace flagged" `Quick test_midstream_flag;
    Alcotest.test_case "mutants rejected with witnesses" `Quick
      test_mutants_rejected;
    Alcotest.test_case "exhaustive differential vs Herbrand" `Quick
      test_exhaustive;
    Alcotest.test_case "100-seed every-scheduler sweep" `Slow test_sweep;
  ]
