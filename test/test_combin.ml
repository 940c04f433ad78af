(* Tests for the combinatorics substrate. *)

open Util

let test_factorial () =
  check_int "0!" 1 (Combin.Perm.factorial 0);
  check_int "1!" 1 (Combin.Perm.factorial 1);
  check_int "5!" 120 (Combin.Perm.factorial 5);
  check_int "10!" 3628800 (Combin.Perm.factorial 10);
  Alcotest.check_raises "negative" (Invalid_argument "Perm.factorial: negative")
    (fun () -> ignore (Combin.Perm.factorial (-1)))

let test_perm_all () =
  check_int "0 perms" 1 (List.length (Combin.Perm.all 0));
  check_int "3 perms" 6 (List.length (Combin.Perm.all 3));
  check_int "5 perms" 120 (List.length (Combin.Perm.all 5));
  (* lexicographic order *)
  let p3 = Combin.Perm.all 3 in
  Alcotest.(check (list (array int)))
    "lex order"
    [ [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |];
      [| 2; 0; 1 |]; [| 2; 1; 0 |] ]
    p3

let test_perm_all_distinct () =
  let ps = Combin.Perm.all 4 in
  let sorted = List.sort_uniq compare ps in
  check_int "all distinct" 24 (List.length sorted);
  List.iter (fun p -> check_true "is perm" (Combin.Perm.is_permutation p)) ps

let test_perm_exists () =
  check_true "exists identity" (Combin.Perm.exists 3 (fun p -> p = [| 0; 1; 2 |]));
  check_false "none absurd" (Combin.Perm.exists 3 (fun p -> Array.length p = 4))

let prop_rank_unrank =
  QCheck.Test.make ~name:"perm rank/unrank roundtrip" ~count:200
    QCheck.(pair (int_range 1 7) (int_range 0 5039))
    (fun (n, r) ->
      let r = r mod Combin.Perm.factorial n in
      let p = Combin.Perm.unrank n r in
      Combin.Perm.rank p = r && Combin.Perm.is_permutation p)

let prop_inverse =
  QCheck.Test.make ~name:"perm inverse composes to identity" ~count:200
    QCheck.(int_range 1 8)
    (fun n ->
      let st = rng n in
      let p = Combin.Perm.random st n in
      let q = Combin.Perm.inverse p in
      Array.init n (fun i -> q.(p.(i))) = Array.init n (fun i -> i))

let test_interleave_count () =
  check_int "(1) -> 1" 1 (Combin.Interleave.count [| 1 |]);
  check_int "(2,2) -> 6" 6 (Combin.Interleave.count [| 2; 2 |]);
  check_int "(3,2) -> 10" 10 (Combin.Interleave.count [| 3; 2 |]);
  check_int "(2,2,2) -> 90" 90 (Combin.Interleave.count [| 2; 2; 2 |]);
  check_int "(3,3) -> 20" 20 (Combin.Interleave.count [| 3; 3 |]);
  check_int "(0,2) -> 1" 1 (Combin.Interleave.count [| 0; 2 |])

let test_interleave_all () =
  let fmt = [| 2; 2 |] in
  let ils = Combin.Interleave.all fmt in
  check_int "enumerated count" (Combin.Interleave.count fmt) (List.length ils);
  check_int "distinct" (List.length ils)
    (List.length (List.sort_uniq compare ils));
  List.iter
    (fun il -> check_true "valid" (Combin.Interleave.is_valid fmt il))
    ils

let prop_interleave_count_matches_enum =
  QCheck.Test.make ~name:"interleave count = enumeration length" ~count:60
    (QCheck.make (format_gen ~max_n:3 ~max_m:3))
    (fun fmt ->
      Combin.Interleave.count fmt = List.length (Combin.Interleave.all fmt))

let prop_interleave_rank_unrank =
  QCheck.Test.make ~name:"interleave rank/unrank roundtrip" ~count:100
    (QCheck.make
       QCheck.Gen.(
         format_gen ~max_n:3 ~max_m:3 >>= fun fmt ->
         int_range 0 (Combin.Interleave.count fmt - 1) >>= fun r ->
         return (fmt, r)))
    (fun (fmt, r) ->
      let il = Combin.Interleave.unrank fmt r in
      Combin.Interleave.is_valid fmt il && Combin.Interleave.rank fmt il = r)

let prop_interleave_random_valid =
  QCheck.Test.make ~name:"random interleavings are valid" ~count:200
    (QCheck.make (format_gen ~max_n:4 ~max_m:4))
    (fun fmt ->
      let st = rng (Array.fold_left ( + ) 0 fmt) in
      Combin.Interleave.is_valid fmt (Combin.Interleave.random st fmt))

(* The inverse-CDF scan [Interleave.random] replaced: each position
   draws k below the steps left and walks the transactions' remaining
   counts to the first prefix that exceeds k. Seeded callers rely on the
   Fenwick descent being this same function of the random state. *)
let reference_random st fmt =
  let remaining = Array.copy fmt in
  let left = ref (Array.fold_left ( + ) 0 fmt) in
  Array.init !left (fun _ ->
      let k = Random.State.int st !left in
      let rec pick i acc =
        let acc = acc + remaining.(i) in
        if k < acc then i else pick (i + 1) acc
      in
      let i = pick 0 0 in
      remaining.(i) <- remaining.(i) - 1;
      decr left;
      i)

(* Formats with empty transactions, of sizes at and around powers of
   two: 1, small ones, 17 (one past 16) and 300 (padded to 512). *)
let identity_format_gen =
  QCheck.Gen.(
    oneofl [ 1; 2; 3; 5; 8; 17; 300 ] >>= fun n ->
    int_range 0 4 >>= fun max_m ->
    array_size (return n) (int_range 0 max_m))

let prop_interleave_random_reference =
  QCheck.Test.make ~name:"random draw equals the linear-scan reference"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) int)
       QCheck.Gen.(pair identity_format_gen int))
    (fun (fmt, seed) ->
      let st = Random.State.make [| seed |] in
      let st' = Random.State.copy st in
      let il = Combin.Interleave.random st fmt in
      let il' = reference_random st' fmt in
      il = il' && Random.State.bits st = Random.State.bits st')

let test_interleave_serial () =
  let fmt = [| 2; 3 |] in
  let il = Combin.Interleave.serial fmt [| 1; 0 |] in
  Alcotest.(check (array int)) "serial order" [| 1; 1; 1; 0; 0 |] il;
  check_true "is serial" (Combin.Interleave.is_serial fmt il);
  check_false "mixed not serial"
    (Combin.Interleave.is_serial fmt [| 0; 1; 0; 1; 1 |])

let test_serial_count () =
  (* exactly n! serial interleavings among all *)
  let fmt = [| 2; 2; 2 |] in
  let serial =
    List.filter (Combin.Interleave.is_serial fmt) (Combin.Interleave.all fmt)
  in
  check_int "3! serial" 6 (List.length serial)

let suite =
  [
    Alcotest.test_case "factorial" `Quick test_factorial;
    Alcotest.test_case "perm all" `Quick test_perm_all;
    Alcotest.test_case "perm distinct" `Quick test_perm_all_distinct;
    Alcotest.test_case "perm exists" `Quick test_perm_exists;
    Alcotest.test_case "interleave count" `Quick test_interleave_count;
    Alcotest.test_case "interleave all" `Quick test_interleave_all;
    Alcotest.test_case "interleave serial" `Quick test_interleave_serial;
    Alcotest.test_case "serial count" `Quick test_serial_count;
  ]
  @ qsuite
      [
        prop_rank_unrank;
        prop_inverse;
        prop_interleave_count_matches_enum;
        prop_interleave_rank_unrank;
        prop_interleave_random_valid;
        prop_interleave_random_reference;
      ]
