(* Tests for locked transaction systems and the locking policies:
   2PL (Figure 2), 2PL' (Figure 5), the mutex strawman and tree locking. *)

open Util
open Core

let fig2_syntax = Syntax.of_lists [ Examples.fig2_transaction ]

let steps_to_strings l =
  Array.to_list
    (Array.map
       (fun s -> Format.asprintf "%a" Locking.Locked.pp_step s)
       l.Locking.Locked.txs.(0))

let test_figure2 () =
  (* the exact locked transaction of Figure 2(b) *)
  let l = Locking.Two_phase.apply fig2_syntax in
  Alcotest.(check (list string))
    "figure 2(b)"
    [ "lock x"; "T11"; "lock y"; "T12"; "T13"; "lock z"; "unlock x";
      "unlock y"; "T14"; "unlock z" ]
    (steps_to_strings l)

let test_figure5 () =
  (* the exact locked transaction of Figure 5(b), distinguished var x *)
  let l = Locking.Two_phase_prime.apply ~distinguished:"x" fig2_syntax in
  Alcotest.(check (list string))
    "figure 5(b)"
    [ "lock x"; "T11"; "lock x'"; "unlock x'"; "lock y"; "T12"; "T13";
      "lock x'"; "unlock x"; "lock z"; "unlock y"; "unlock x'"; "T14";
      "unlock z" ]
    (steps_to_strings l)

let test_2pl_properties () =
  let l = Locking.Two_phase.apply fig2_syntax in
  check_true "two-phase" (Locking.Locked.is_two_phase l);
  check_true "well-formed" (Locking.Locked.is_well_formed l);
  Alcotest.(check (list string)) "lock vars" [ "x"; "y"; "z" ]
    (Locking.Locked.lock_vars l)

let test_2pl_prime_properties () =
  let l = Locking.Two_phase_prime.apply ~distinguished:"x" fig2_syntax in
  check_false "2PL' is not two-phase" (Locking.Locked.is_two_phase l);
  check_true "but well-formed" (Locking.Locked.is_well_formed l);
  Alcotest.(check (list string)) "lock vars include x'"
    [ "x"; "x'"; "y"; "z" ]
    (Locking.Locked.lock_vars l)

let test_2pl_prime_no_x () =
  (* transactions that do not touch x are locked exactly as 2PL *)
  let s = Syntax.of_lists [ [ "y"; "z" ] ] in
  let a = Locking.Two_phase.apply s in
  let b = Locking.Two_phase_prime.apply ~distinguished:"x" s in
  check_true "identical" (a.Locking.Locked.txs = b.Locking.Locked.txs)

let two_tx = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ]

let test_legality () =
  let l = Locking.Two_phase.apply two_tx in
  (* running T1 fully then T2 is always legal *)
  let len1 = Array.length l.Locking.Locked.txs.(0) in
  let len2 = Array.length l.Locking.Locked.txs.(1) in
  let serial = Array.append (Array.make len1 0) (Array.make len2 1) in
  check_true "serial locked legal" (Locking.Locked.legal l serial);
  (* interleaving the two lock phases deadlock-style is illegal *)
  let clash = Array.append [| 0; 1 |] (Array.make (len1 + len2 - 2) 0) in
  check_false "lock clash illegal" (Locking.Locked.legal l clash)

let test_projection () =
  let l = Locking.Two_phase.apply two_tx in
  let len1 = Array.length l.Locking.Locked.txs.(0) in
  let len2 = Array.length l.Locking.Locked.txs.(1) in
  let serial = Array.append (Array.make len1 0) (Array.make len2 1) in
  let h = Locking.Locked.project l serial in
  check_true "projection is the serial base schedule"
    (Schedule.equal h (Schedule.serial [| 2; 2 |] [| 0; 1 |]))

let test_outputs_serializable () =
  (* 2PL correctness: every output is conflict-serializable *)
  check_true "2PL correct on two_tx"
    (Locking.Policy.correct_exhaustive Locking.Two_phase.policy two_tx);
  check_true "2PL correct on fig3 pair"
    (Locking.Policy.correct_exhaustive Locking.Two_phase.policy
       Examples.fig3_pair)

let test_2pl_prime_correct () =
  List.iter
    (fun s ->
      check_true "2PL' correct"
        (Locking.Policy.correct_exhaustive
           (Locking.Two_phase_prime.policy ~distinguished:"x")
           s))
    [ two_tx; Examples.fig3_pair;
      Syntax.of_lists [ [ "x"; "y"; "x" ]; [ "x"; "y" ] ] ]

let test_mutex_outputs_serial () =
  let l = Locking.Mutex_policy.apply two_tx in
  let outs = Locking.Locked.outputs l in
  let serial = Schedule.all_serial [| 2; 2 |] in
  check_int "exactly the serial schedules" (List.length serial)
    (List.length outs);
  List.iter
    (fun h -> check_true "serial" (Schedule.is_serial h))
    outs

let test_2pl_prime_strictly_better () =
  (* §5.4: 2PL' is strictly better than 2PL in performance. Witness
     system: T1 = (x, y, z) holds x until after its whole lock phase
     under 2PL, whereas 2PL' releases x right after T11 — so
     (T11, T21, T12, T13) is output by 2PL' only. *)
  let s = Syntax.of_lists [ [ "x"; "y"; "z" ]; [ "x" ] ] in
  let p' = Locking.Two_phase_prime.policy ~distinguished:"x" in
  let p = Locking.Two_phase.policy in
  check_true "2PL' dominates" (Locking.Policy.dominates p' p s);
  check_true "strictly" (Locking.Policy.strictly_better p' p s)

let test_passes_implies_can_output () =
  let l = Locking.Two_phase.apply two_tx in
  List.iter
    (fun h ->
      if Locking.Locked.passes l h then
        check_true "passes => can_output" (Locking.Locked.can_output l h))
    (Schedule.all [| 2; 2 |])

let test_can_output_matches_outputs () =
  List.iter
    (fun policy ->
      let l = policy.Locking.Policy.apply two_tx in
      let outs = Locking.Locked.outputs l in
      List.iter
        (fun h ->
          check_true "can_output = member of outputs"
            (Locking.Locked.can_output l h
            = List.exists (Schedule.equal h) outs))
        (Schedule.all [| 2; 2 |]))
    [ Locking.Two_phase.policy; Locking.Mutex_policy.policy;
      Locking.Two_phase_prime.policy ~distinguished:"x" ]

let test_tree_lock () =
  let h = [ ("a", "r"); ("b", "r"); ("c", "a") ] in
  Alcotest.(check (list string)) "path" [ "c"; "a"; "r" ]
    (Locking.Tree_lock.path_to_root h "c");
  Alcotest.(check (list string)) "span" [ "a"; "c" ]
    (Locking.Tree_lock.spanning_subtree h [ "c"; "a" ]);
  Alcotest.(check (list string)) "span across siblings" [ "r"; "a"; "b"; "c" ]
    (Locking.Tree_lock.spanning_subtree h [ "c"; "b" ]);
  let s = Syntax.of_lists [ [ "a"; "c" ]; [ "c"; "a" ] ] in
  check_true "tree policy correct"
    (Locking.Policy.correct_exhaustive (Locking.Tree_lock.policy h) s);
  (* sibling subtrees accessed in sequence: c then b requires unlocking
     the a-subtree before locking b — not two-phase *)
  let sib = Syntax.of_lists [ [ "c"; "b" ]; [ "b"; "c" ] ] in
  let l = Locking.Tree_lock.apply h sib in
  check_false "tree locking not two-phase in general"
    (Locking.Locked.is_two_phase l);
  check_true "yet correct"
    (Locking.Policy.correct_exhaustive (Locking.Tree_lock.policy h) sib)

let test_tree_lock_cycle () =
  let h = [ ("a", "b"); ("b", "a") ] in
  check_true "cyclic hierarchy rejected"
    (try
       ignore (Locking.Tree_lock.path_to_root h "a");
       false
     with Invalid_argument _ -> true)

let test_make_validation () =
  let s = Syntax.of_lists [ [ "x" ] ] in
  let bad1 = [ [ Locking.Locked.Action (Names.step 0 0); Locking.Locked.Unlock "x" ] ] in
  check_true "unmatched unlock rejected"
    (try ignore (Locking.Locked.make s bad1); false
     with Invalid_argument _ -> true);
  let bad2 = [ [ Locking.Locked.Lock "x"; Locking.Locked.Action (Names.step 0 0) ] ] in
  check_true "dangling lock rejected"
    (try ignore (Locking.Locked.make s bad2); false
     with Invalid_argument _ -> true);
  let bad3 = [ [] ] in
  check_true "missing action rejected"
    (try ignore (Locking.Locked.make s bad3); false
     with Invalid_argument _ -> true)

(* A final action waits for every lock of its trailing protocol (2PL'
   ends with [lock x'] after its last action): T1 = lock a, T11,
   lock b, unlock a, unlock b may not run T11 while T2 holds b. *)
let test_final_action_waits_for_trailing_locks () =
  let module L = Locking.Locked in
  let l =
    L.make (Syntax.of_lists [ [ "x" ]; [ "y"; "y" ] ])
      [ [ L.Lock "a"; L.Action (Names.step 0 0); L.Lock "b"; L.Unlock "a";
          L.Unlock "b" ];
        [ L.Lock "b"; L.Action (Names.step 1 0); L.Action (Names.step 1 1);
          L.Unlock "b" ] ]
  in
  let h order = Array.of_list (List.map (fun (i, j) -> Names.step i j) order) in
  check_false "T11 while T2 holds b"
    (L.passes l (h [ (1, 0); (0, 0); (1, 1) ]));
  check_true "T11 after T2 releases b"
    (L.passes l (h [ (1, 0); (1, 1); (0, 0) ]));
  let m = L.machine l in
  Locking.Lrs.advance m 1 ignore;
  Alcotest.(check (list int)) "T1's blockers" [ 1 ] (Locking.Lrs.blockers m 0)

(* The online engine's zero-delay set is the offline greedy
   lock-respecting scheduler's: [Driver.fixpoint_of] of [Tpl_sched]
   equals {h | Locked.passes (policy T) h} for 2PL, 2PL' and preclaim,
   over every syntax of formats 2x2, 2x3, 3x2 over {x, y} and 2x2x2 over
   {x, y, z} (809 systems, 199,038 histories). *)
let test_zero_delay_identity () =
  let universes =
    [ ([| 2; 2 |], [ "x"; "y" ]); ([| 2; 3 |], [ "x"; "y" ]);
      ([| 3; 2 |], [ "x"; "y" ]); ([| 2; 2; 2 |], [ "x"; "y"; "z" ]) ]
  in
  let systems = ref 0 and histories = ref 0 in
  List.iter
    (fun (fmt, vars) ->
      let all = Schedule.all fmt in
      List.iter
        (fun syntax ->
          incr systems;
          List.iter
            (fun (policy : Locking.Policy.t) ->
              let locked = policy.apply syntax in
              let fixpoint =
                Sched.Driver.fixpoint_of
                  (fun () -> Sched.Tpl_sched.create ~policy ~syntax ())
                  fmt
              in
              histories := !histories + List.length all;
              if fixpoint <> List.filter (Locking.Locked.passes locked) all
              then
                Alcotest.failf "%s on %a: zero-delay set <> Locked.passes"
                  policy.name Syntax.pp syntax)
            [ Locking.Two_phase.policy;
              Locking.Two_phase_prime.on_first_var syntax;
              Locking.Preclaim.policy ])
        (Optimality.Universe.all_syntaxes ~fmt ~vars))
    universes;
  check_int "systems" 809 !systems;
  check_int "histories" 199_038 !histories

(* Property: 2PL outputs are serializable on random 2-3 transaction
   syntaxes. *)
let prop_2pl_correct_random =
  QCheck.Test.make ~name:"2PL outputs serializable (random syntaxes)"
    ~count:40
    (QCheck.make (syntax_gen ~max_n:2 ~max_m:3 ~n_vars:2))
    (fun syntax ->
      Locking.Policy.correct_exhaustive Locking.Two_phase.policy syntax)

let prop_2pl_prime_correct_random =
  QCheck.Test.make ~name:"2PL' outputs serializable (random syntaxes)"
    ~count:30
    (QCheck.make (syntax_gen ~max_n:2 ~max_m:3 ~n_vars:2))
    (fun syntax ->
      Locking.Policy.correct_exhaustive
        (Locking.Two_phase_prime.policy ~distinguished:"x")
        syntax)

(* Property: serial base schedules can always be output by 2PL. *)
let prop_2pl_outputs_serial =
  QCheck.Test.make ~name:"2PL can output every serial schedule" ~count:40
    (QCheck.make (syntax_gen ~max_n:3 ~max_m:2 ~n_vars:2))
    (fun syntax ->
      let fmt = Syntax.format syntax in
      let l = Locking.Two_phase.apply syntax in
      let st = rng (Syntax.n_steps syntax) in
      let order = Combin.Perm.random st (Array.length fmt) in
      Locking.Locked.can_output l (Schedule.serial fmt order))

(* Property: greedy passability implies reachability for 2PL. *)
let prop_passes_implies_can_output_random =
  QCheck.Test.make ~name:"passes implies can_output (random)" ~count:60
    (arbitrary_syntax_and_schedule ~max_n:3 ~max_m:2 ~n_vars:2)
    (fun (syntax, h) ->
      let l = Locking.Two_phase.apply syntax in
      (not (Locking.Locked.passes l h)) || Locking.Locked.can_output l h)

let suite =
  [
    Alcotest.test_case "figure 2 exact" `Quick test_figure2;
    Alcotest.test_case "figure 5 exact" `Quick test_figure5;
    Alcotest.test_case "2PL properties" `Quick test_2pl_properties;
    Alcotest.test_case "2PL' properties" `Quick test_2pl_prime_properties;
    Alcotest.test_case "2PL' without x" `Quick test_2pl_prime_no_x;
    Alcotest.test_case "locked legality" `Quick test_legality;
    Alcotest.test_case "projection" `Quick test_projection;
    Alcotest.test_case "2PL outputs serializable" `Quick test_outputs_serializable;
    Alcotest.test_case "2PL' correct" `Quick test_2pl_prime_correct;
    Alcotest.test_case "mutex outputs = serial" `Quick test_mutex_outputs_serial;
    Alcotest.test_case "2PL' strictly better" `Quick test_2pl_prime_strictly_better;
    Alcotest.test_case "passes => can_output" `Quick test_passes_implies_can_output;
    Alcotest.test_case "can_output = outputs" `Quick test_can_output_matches_outputs;
    Alcotest.test_case "tree locking" `Quick test_tree_lock;
    Alcotest.test_case "tree cycle rejected" `Quick test_tree_lock_cycle;
    Alcotest.test_case "locked validation" `Quick test_make_validation;
    Alcotest.test_case "final action waits for trailing locks" `Quick
      test_final_action_waits_for_trailing_locks;
    Alcotest.test_case "Tpl_sched zero delay = Locked.passes" `Quick
      test_zero_delay_identity;
  ]
  @ qsuite
      [
        prop_2pl_correct_random;
        prop_2pl_prime_correct_random;
        prop_2pl_outputs_serial;
        prop_passes_implies_can_output_random;
      ]
