(* Tests for shared/exclusive two-phase locking over the read/write
   model (X2). *)

open Util
open Core

let r v = Rw_model.read v
let w v = Rw_model.write v

let test_compatibility () =
  check_true "S/S" (Locking.Lrs.compatible Locking.Rw_lock.Shared Locking.Rw_lock.Shared);
  check_false "S/X" (Locking.Lrs.compatible Locking.Rw_lock.Shared Locking.Rw_lock.Exclusive);
  check_false "X/S" (Locking.Lrs.compatible Locking.Rw_lock.Exclusive Locking.Rw_lock.Shared);
  check_false "X/X" (Locking.Lrs.compatible Locking.Rw_lock.Exclusive Locking.Rw_lock.Exclusive)

let show prog =
  Array.to_list prog
  |> List.map (fun s -> Format.asprintf "%a" Locking.Rw_lock.pp_step s)

let test_transform_read_then_write () =
  (* r(x) then w(x): shared at the read, upgraded before the write *)
  let prog = Locking.Rw_lock.transform 0 [ r "x"; w "x" ] in
  Alcotest.(check (list string)) "upgrade program"
    [ "lock-S x"; "R1(x)"; "lock-X x"; "W1(x)"; "unlock x" ]
    (show prog);
  check_true "two-phase" (Locking.Rw_lock.is_two_phase prog)

let test_transform_write_first () =
  let prog = Locking.Rw_lock.transform 0 [ w "x"; r "x" ] in
  Alcotest.(check (list string)) "exclusive from the start"
    [ "lock-X x"; "W1(x)"; "R1(x)"; "unlock x" ]
    (show prog)

let test_transform_two_vars () =
  (* reads of x and y with a write of y: early release of x after the
     phase shift, like 2PL *)
  let prog = Locking.Rw_lock.transform 0 [ r "x"; r "y"; w "y" ] in
  Alcotest.(check (list string)) "placement"
    [ "lock-S x"; "R1(x)"; "lock-S y"; "R1(y)"; "lock-X y"; "unlock x";
      "W1(y)"; "unlock y" ]
    (show prog);
  check_true "two-phase" (Locking.Rw_lock.is_two_phase prog)

let readers_programs = Locking.Rw_lock.programs [ [ r "x" ]; [ r "x" ] ]

let test_concurrent_readers () =
  (* both transactions may interleave freely: S locks coexist *)
  let fmt = Array.map Array.length readers_programs in
  let legal_count =
    List.length
      (List.filter (Locking.Rw_lock.legal readers_programs)
         (Combin.Interleave.all fmt))
  in
  check_int "all interleavings legal" (Combin.Interleave.count fmt) legal_count

let test_exclusive_blocks_readers () =
  let progs =
    Array.of_list
      [ Locking.Rw_lock.exclusive_only 0 [ r "x" ];
        Locking.Rw_lock.exclusive_only 1 [ r "x" ] ]
  in
  (* with exclusive-only locks the readers serialize *)
  check_int "only the serial projections" 2
    (List.length (Locking.Rw_lock.outputs progs))

let test_shared_beats_exclusive () =
  (* read-heavy workload: two readers of x plus a writer of y *)
  let per_tx = [ [ r "x"; r "x" ]; [ r "x"; w "y" ] ] in
  let shared = Locking.Rw_lock.programs per_tx in
  let exclusive =
    Array.of_list (List.mapi Locking.Rw_lock.exclusive_only per_tx)
  in
  let n_sh = List.length (Locking.Rw_lock.outputs shared) in
  let n_ex = List.length (Locking.Rw_lock.outputs exclusive) in
  check_true "shared admits strictly more" (n_sh > n_ex)

let test_outputs_csr () =
  (* the classical correctness theorem for rw-2PL *)
  List.iter
    (fun per_tx ->
      let progs = Locking.Rw_lock.programs per_tx in
      List.iter
        (fun h ->
          check_true "output is CSR"
            (Rw_model.conflict_serializable (List.length per_tx) h))
        (Locking.Rw_lock.outputs progs))
    [
      [ [ r "x"; w "x" ]; [ r "x"; w "x" ] ];
      [ [ r "x"; w "y" ]; [ r "y"; w "x" ] ];
      [ [ w "x" ]; [ r "x"; r "y" ]; [ w "y" ] ];
    ]

let test_lost_update_blocked () =
  (* R1(x) R2(x) W1(x) W2(x) must not be admitted: the upgrades clash *)
  let per_tx = [ [ r "x"; w "x" ]; [ r "x"; w "x" ] ] in
  let progs = Locking.Rw_lock.programs per_tx in
  let lost = Rw_model.interleave per_tx [| 0; 1; 0; 1 |] in
  check_false "lost update rejected"
    (List.exists (fun h -> h = lost) (Locking.Rw_lock.outputs progs));
  check_false "passes agrees" (Locking.Rw_lock.passes progs lost)

let test_passes_implies_output () =
  let per_tx = [ [ r "x"; w "y" ]; [ r "y"; w "x" ] ] in
  let progs = Locking.Rw_lock.programs per_tx in
  let outs = Locking.Rw_lock.outputs progs in
  let fmt = Array.of_list (List.map List.length per_tx) in
  Combin.Interleave.iter fmt (fun il ->
      let h = Rw_model.interleave per_tx (Array.copy il) in
      if Locking.Rw_lock.passes progs h then
        check_true "passes => output" (List.exists (fun o -> o = h) outs))

(* Property: rw-2PL outputs are conflict-serializable on random
   workloads. *)
let rw_workload_gen =
  (* locked programs are roughly twice as long as the action lists, and
     [outputs] enumerates interleavings of the programs: keep the
     workloads tiny (2 transactions of <= 2 actions) so each case stays
     in the hundreds of interleavings *)
  QCheck.Gen.(
    int_range 2 2 >>= fun n ->
    let tx =
      list_size (int_range 1 2)
        (map2
           (fun is_w v ->
             let var = if v then "x" else "y" in
             if is_w then w var else r var)
           bool bool)
    in
    let rec build i acc =
      if i = 0 then return (List.rev acc) else tx >>= fun t -> build (i - 1) (t :: acc)
    in
    build n [])

let prop_rw2pl_correct =
  QCheck.Test.make ~name:"rw-2PL outputs are conflict-serializable" ~count:30
    (QCheck.make rw_workload_gen)
    (fun per_tx ->
      let progs = Locking.Rw_lock.programs per_tx in
      List.for_all
        (Rw_model.conflict_serializable (List.length per_tx))
        (Locking.Rw_lock.outputs progs))

let prop_shared_superset =
  QCheck.Test.make ~name:"mode-aware locking admits >= exclusive-only"
    ~count:30
    (QCheck.make rw_workload_gen)
    (fun per_tx ->
      let shared = Locking.Rw_lock.programs per_tx in
      let exclusive =
        Array.of_list (List.mapi Locking.Rw_lock.exclusive_only per_tx)
      in
      let n_sh = List.length (Locking.Rw_lock.outputs shared) in
      let n_ex = List.length (Locking.Rw_lock.outputs exclusive) in
      n_sh >= n_ex)

let suite =
  [
    Alcotest.test_case "compatibility" `Quick test_compatibility;
    Alcotest.test_case "read-then-write upgrade" `Quick test_transform_read_then_write;
    Alcotest.test_case "write-first exclusive" `Quick test_transform_write_first;
    Alcotest.test_case "two-variable placement" `Quick test_transform_two_vars;
    Alcotest.test_case "concurrent readers" `Quick test_concurrent_readers;
    Alcotest.test_case "exclusive serializes readers" `Quick test_exclusive_blocks_readers;
    Alcotest.test_case "shared beats exclusive" `Quick test_shared_beats_exclusive;
    Alcotest.test_case "outputs are CSR" `Quick test_outputs_csr;
    Alcotest.test_case "lost update blocked" `Quick test_lost_update_blocked;
    Alcotest.test_case "passes implies output" `Quick test_passes_implies_output;
  ]
  @ qsuite [ prop_rw2pl_correct; prop_shared_superset ]
