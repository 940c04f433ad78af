(* Tests for the micro-universe verification of the optimality theorems. *)

open Util
open Core

let test_all_functions () =
  (* Z_2, unary: 2^2 = 4 functions *)
  check_int "unary over Z2" 4 (List.length (Optimality.Universe.all_functions ~k:2 ~arity:1));
  (* Z_2, binary: 2^4 = 16 *)
  check_int "binary over Z2" 16 (List.length (Optimality.Universe.all_functions ~k:2 ~arity:2));
  (* Z_3, unary: 3^3 = 27 *)
  check_int "unary over Z3" 27 (List.length (Optimality.Universe.all_functions ~k:3 ~arity:1))

let test_functions_distinct () =
  (* the 4 unary functions over Z2 compute 4 distinct value tables *)
  let fns = Optimality.Universe.all_functions ~k:2 ~arity:1 in
  let tables =
    List.map
      (fun e ->
        List.map
          (fun v ->
            Expr.Ast.eval
              ~locals:(fun _ -> Expr.Value.Int v)
              ~globals:(fun _ -> assert false)
              e)
          [ 0; 1 ])
      fns
  in
  check_int "distinct tables" 4 (List.length (List.sort_uniq compare tables))

let test_functions_range () =
  (* every function's outputs stay in Z_k *)
  List.iter
    (fun e ->
      List.iter
        (fun (a, b) ->
          let v =
            Expr.Ast.eval
              ~locals:(fun i -> Expr.Value.Int (if i = 0 then a else b))
              ~globals:(fun _ -> assert false)
              e
          in
          check_true "in range" (Expr.Value.mem (Expr.Value.Int_range (0, 1)) v))
        [ (0, 0); (0, 1); (1, 0); (1, 1) ])
    (Optimality.Universe.all_functions ~k:2 ~arity:2)

let test_all_syntaxes () =
  (* format (2,1) over 2 vars: 2^3 = 8 syntaxes *)
  check_int "syntax count" 8
    (List.length (Optimality.Universe.all_syntaxes ~fmt:[| 2; 1 |] ~vars:[ "x"; "y" ]))

let test_all_ics () =
  (* 1 var over Z2: 2 states, 2^2 - 1 = 3 nonempty subsets *)
  check_int "ic count" 3 (List.length (Optimality.Universe.all_ics ~k:2 ~vars:[ "x" ]))

let test_states () =
  check_int "Z2 x Z2" 4 (List.length (Optimality.Universe.states ~k:2 ~vars:[ "x"; "y" ]))

let test_basic_assumption_filter () =
  (* systems violating the basic assumption are excluded: count manually *)
  let universe =
    Optimality.Universe.systems ~k:2 ~fmt:[| 1 |] ~vars:[ "x" ] ()
  in
  let probes = Optimality.Universe.states ~k:2 ~vars:[ "x" ] in
  Seq.iter
    (fun sys ->
      check_true "respects basic assumption"
        (Exec.basic_assumption sys ~probes))
    universe

let test_theorem2_micro () =
  (* the headline exhaustive check: over Z2, format (2,1), one variable,
     the optimal minimum-information fixpoint set is exactly the serial
     schedules *)
  let r = Optimality.Verify.theorem2_report ~k:2 ~fmt:[| 2; 1 |] ~vars:[ "x" ] in
  check_true "matches Theorem 2" r.Optimality.Verify.matches;
  check_int "no gap" 0 (List.length r.Optimality.Verify.gap);
  check_true "nontrivial universe" (r.Optimality.Verify.universe_size > 100)

let test_theorem2_micro_11 () =
  let r = Optimality.Verify.theorem2_report ~k:2 ~fmt:[| 1; 1 |] ~vars:[ "x" ] in
  (* with single-step transactions every schedule is serial: trivially
     optimal *)
  check_true "matches" r.Optimality.Verify.matches;
  check_int "all serial" 2 (List.length r.Optimality.Verify.predicted)

let test_theorem3_micro () =
  (* intersection over all semantics+ICs of a fixed syntax must contain
     SR(T) (Herbrand soundness) — and the report records any finite-
     domain gap *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  let r = Optimality.Verify.theorem3_report ~k:2 syntax in
  check_true "SR inside intersection"
    (Fixpoint.subset r.Optimality.Verify.predicted r.Optimality.Verify.intersection);
  (* for this syntax the gap is empty even over Z2 *)
  check_true "matches here" r.Optimality.Verify.matches

let test_theorem3_micro_shared () =
  let syntax = Syntax.of_lists [ [ "x"; "x" ]; [ "x" ] ] in
  let r = Optimality.Verify.theorem3_report ~k:2 syntax in
  check_true "SR inside intersection"
    (Fixpoint.subset r.Optimality.Verify.predicted r.Optimality.Verify.intersection)

let test_report_printer () =
  let r = Optimality.Verify.theorem2_report ~k:2 ~fmt:[| 1; 1 |] ~vars:[ "x" ] in
  let s = Format.asprintf "%a" Optimality.Verify.pp_report r in
  check_true "prints" (String.length s > 0)

(* Property: every member of the Z2 universe treats serial schedules as
   correct (the basic assumption at work). *)
let prop_serial_correct_in_universe =
  QCheck.Test.make ~name:"serial schedules correct across the universe"
    ~count:1
    QCheck.unit
    (fun () ->
      let probes = Optimality.Universe.states ~k:2 ~vars:[ "x" ] in
      let serial = Fixpoint.serial_only [| 2; 1 |] in
      Optimality.Universe.systems ~k:2 ~fmt:[| 2; 1 |] ~vars:[ "x" ] ()
      |> Seq.for_all (fun sys ->
             List.for_all (Exec.correct_schedule sys ~probes) serial))

(* the theorems are stated for k >= 2: below that every entry point
   refuses, instead of dividing by k = 0 or judging a one-value domain *)
let test_k_below_two () =
  List.iter
    (fun k ->
      let refused name f =
        Alcotest.check_raises name
          (Invalid_argument
             (Printf.sprintf "the domain size k must be at least 2, got %d" k))
          (fun () -> ignore (f ()))
      in
      refused "all_functions" (fun () ->
          Optimality.Universe.all_functions ~k ~arity:1);
      refused "states" (fun () -> Optimality.Universe.states ~k ~vars:[ "x" ]);
      refused "all_ics" (fun () -> Optimality.Universe.all_ics ~k ~vars:[ "x" ]);
      refused "systems" (fun () ->
          Optimality.Universe.systems ~k ~fmt:[| 1 |] ~vars:[ "x" ] ());
      refused "theorem 2" (fun () ->
          Optimality.Verify.theorem2_report ~k ~fmt:[| 2; 1 |] ~vars:[ "x" ]))
    [ 0; 1; -1 ]

let suite =
  [
    Alcotest.test_case "function enumeration" `Quick test_all_functions;
    Alcotest.test_case "functions distinct" `Quick test_functions_distinct;
    Alcotest.test_case "functions in range" `Quick test_functions_range;
    Alcotest.test_case "syntax enumeration" `Quick test_all_syntaxes;
    Alcotest.test_case "ic enumeration" `Quick test_all_ics;
    Alcotest.test_case "state enumeration" `Quick test_states;
    Alcotest.test_case "basic assumption filter" `Quick test_basic_assumption_filter;
    Alcotest.test_case "theorem 2 micro-universe" `Slow test_theorem2_micro;
    Alcotest.test_case "theorem 2 (1,1)" `Quick test_theorem2_micro_11;
    Alcotest.test_case "theorem 3 micro-universe" `Slow test_theorem3_micro;
    Alcotest.test_case "theorem 3 shared var" `Quick test_theorem3_micro_shared;
    Alcotest.test_case "report printer" `Quick test_report_printer;
    Alcotest.test_case "k below 2 is refused" `Quick test_k_below_two;
  ]
  @ qsuite [ prop_serial_correct_in_universe ]
