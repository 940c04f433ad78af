(* Engine set-up: the syntax's interned variable ids and what the
   engines build from them. A pool-built syntax is the syntax
   [Syntax.make] builds over the same names; [Partition.make] assigns
   shards as a string table would, and allocates nothing per step; and
   building an engine, or drawing a batch's arrival order, allocates no
   more than its pinned ceiling. *)

open Util
open Core

(* A random syntax as pool indices: [n] transactions of up to [m] steps
   (some empty) over a pool of [np] names, of which some go unused, and
   a kind per step, all [Op.Update] when [typed] is false. *)
let random_case st ~typed =
  let n = 1 + Random.State.int st 8 and m = Random.State.int st 5 in
  let np = 1 + Random.State.int st 10 in
  let pool = Array.init np (fun i -> Printf.sprintf "p%d" (np - i)) in
  let fmt = Array.init n (fun _ -> Random.State.int st (m + 1)) in
  let steps =
    Array.map
      (fun len ->
        Array.init len (fun _ ->
            let k =
              if typed then List.nth Op.all (Random.State.int st 7)
              else Op.Update
            in
            (k, Random.State.int st np)))
      fmt
  in
  (pool, fmt, steps)

(* The ids a step-by-step string table would give: first use in step
   order. *)
let first_use_ids names =
  let tbl = Hashtbl.create 16 in
  Array.map
    (Array.map (fun v ->
         match Hashtbl.find_opt tbl v with
         | Some k -> k
         | None ->
           let k = Hashtbl.length tbl in
           Hashtbl.add tbl v k;
           k))
    names

(* [s] answers every question as the syntax of step names [names] and
   kinds [kinds] does, and its ids are first-use ids. *)
let same_answers s names kinds =
  let ids = first_use_ids names in
  let ok = ref (Syntax.format s = Array.map Array.length names) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          let id = Names.step i j in
          ok :=
            !ok
            && Syntax.var s id = v
            && Syntax.kind s id = kinds.(i).(j)
            && Syntax.var_name s ids.(i).(j) = v)
        row)
    names;
  let distinct =
    List.sort_uniq String.compare
      (List.concat_map Array.to_list (Array.to_list names))
  in
  !ok
  && Syntax.vars s = distinct
  && Syntax.var_ids s = ids
  && Syntax.n_vars s = List.length distinct

let prop_pool_equals_make =
  QCheck.Test.make ~name:"a pool-built syntax equals Syntax.make" ~count:500
    QCheck.(pair small_nat bool)
    (fun (seed, typed) ->
      let st = Random.State.make [| 0x5E7; seed |] in
      let pool, fmt, steps = random_case st ~typed in
      let names = Array.map (Array.map (fun (_, p) -> pool.(p))) steps in
      let kinds = Array.map (Array.map fst) steps in
      let built =
        if typed then Syntax.init_typed pool fmt (fun i j -> steps.(i).(j))
        else Syntax.init pool fmt (fun i j -> snd steps.(i).(j))
      in
      let made =
        if typed then
          Syntax.make_typed (Array.map (Array.map (fun (k, p) -> (k, pool.(p)))) steps)
        else Syntax.make names
      in
      Syntax.equal built made
      && same_answers built names kinds
      && same_answers made names kinds
      && Syntax.typed built = Syntax.typed made
      (* a renaming that merges the first two pool names into one *)
      &&
      let merge v = if v = pool.(0) then pool.(Array.length pool - 1) else v in
      let renamed = Syntax.rename merge built in
      let names' = Array.map (Array.map merge) names in
      Syntax.equal renamed
        (if typed then
           Syntax.make_typed
             (Array.map2 (Array.map2 (fun k v -> (k, v))) kinds names')
         else Syntax.make names')
      && same_answers renamed names' kinds)

(* A hand-checked case: the pool's order is not the ids' order, an
   unused name is dropped, and a merging rename renumbers. *)
let test_pool_by_hand () =
  let pool = [| "c"; "b"; "a"; "unused" |] in
  let rows = [| [| 2; 0 |]; [||]; [| 0; 1; 2 |] |] in
  let s = Syntax.init pool [| 2; 0; 3 |] (fun i j -> rows.(i).(j)) in
  check_true "equals make"
    (Syntax.equal s (Syntax.of_lists [ [ "a"; "c" ]; []; [ "c"; "b"; "a" ] ]));
  Alcotest.(check (array (array int)))
    "first-use ids" [| [| 0; 1 |]; [||]; [| 1; 2; 0 |] |] (Syntax.var_ids s);
  Alcotest.(check (list string)) "vars" [ "a"; "b"; "c" ] (Syntax.vars s);
  check_int "n_vars" 3 (Syntax.n_vars s);
  Alcotest.(check string) "name of id 1" "c" (Syntax.var_name s 1);
  let r = Syntax.rename (fun v -> if v = "a" then "b" else v) s in
  Alcotest.(check (array (array int)))
    "merged ids" [| [| 0; 1 |]; [||]; [| 1; 0; 0 |] |] (Syntax.var_ids r);
  check_true "merged equals make"
    (Syntax.equal r (Syntax.of_lists [ [ "b"; "c" ]; []; [ "c"; "b"; "b" ] ]));
  check_true "index outside the pool"
    (try ignore (Syntax.init pool [| 1 |] (fun _ _ -> 4)); false
     with Invalid_argument _ -> true);
  check_true "empty format"
    (try ignore (Syntax.init pool [||] (fun _ _ -> 0)); false
     with Invalid_argument _ -> true)

(* Every generator's syntax equals [Syntax.make] over its own names. *)
let test_generators_equal_make () =
  let st = rng 31 in
  let remade s =
    let fmt = Syntax.format s in
    let step i j = Names.step i j in
    if Syntax.typed s then
      Syntax.make_typed
        (Array.mapi
           (fun i m ->
             Array.init m (fun j -> (Syntax.kind s (step i j), Syntax.var s (step i j))))
           fmt)
    else
      Syntax.make
        (Array.mapi (fun i m -> Array.init m (fun j -> Syntax.var s (step i j))) fmt)
  in
  List.iter
    (fun (name, s) -> check_true (name ^ " equals make") (Syntax.equal s (remade s)))
    Sim.Workload.
      [
        ("uniform", uniform st ~n:9 ~m:3 ~n_vars:5);
        ("hotspot", hotspot st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8);
        ("zipf", zipf st ~n:64 ~m:2 ~n_vars:8 ~s:1.2);
        ("mixed", mixed st ~n:8 ~m:4 ~n_vars:4 ~read_frac:0.5 ~theta:0.5);
        ( "semantic_counters",
          semantic_counters st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8 ~read_frac:0.1 );
        ( "semantic_zipf",
          semantic_zipf st ~n:12 ~m:3 ~n_vars:6 ~s:1.1 ~read_frac:0.2 );
        ("disjoint", disjoint ~n:300 ~m:2);
      ]

let prop_partition_reference =
  QCheck.Test.make ~name:"Partition.make matches a string-table reference"
    ~count:300
    QCheck.(pair small_nat bool)
    (fun (seed, typed) ->
      let st = Random.State.make [| 0x9A7; seed |] in
      let pool, fmt, steps = random_case st ~typed in
      let syntax = Syntax.init_typed pool fmt (fun i j -> steps.(i).(j)) in
      List.for_all (partition_matches_reference syntax)
        [ 1; 2; 4; 8 ])

(* ---------- allocation ceilings ---------- *)

(* Minor words one call of [make] allocates (an engine build, or an
   arrival draw), averaged over 100 calls on the same input (the calls
   allocate alike; the average hides the first call's one-off work). *)
let build_words make syntax =
  ignore (make syntax);
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (make syntax))
  done;
  (Gc.minor_words () -. before) /. 100.

(* The bench shapes: 16x8 hot spots and 64x2 zipf mixes, untyped for SGT
   and the sharded engine (K = 4, and K = 1 at 64x2), counter bumps for
   the semantic one. Each ceiling is about 10% over what a build
   allocates on OCaml 5.1, and below what it allocated while the engines
   interned names through string tables (in brackets): 532 [1475], 758
   [2625] and 1550 [2883] words at 16x8; 1300 [2627], 1622 [4209], 3305
   [5373] and 1857 at 64x2. The semantic builds allocated 1687 and 2887
   words while the class compile looked each step's op up through
   [Syntax.kind] and built lists. The sharded builds allocated 2159,
   4730 and 3250 words while the partition built a shard row and a
   shard-local variable row per transaction and each kernel was sized
   for its own variables. They allocated 1560, 3315 and 1859 words while
   the partition kept a K x n table of shard-local ids and a cross flag
   per transaction, the engine a participant list per transaction and
   a coordinator-id row per shard, and every engine a copy of the
   format: 1503, 3018 and 1747 since. With one held slot per step and
   a row copy per shard kernel, SGT 16x8 allocated 516, semantic 16x8
   742 and the sharded builds 1503, 3018 and 1747; with one per
   distinct entry and kernels on the syntax's rows, 438, 676, 1373,
   2938 and 1676. *)
let ceilings =
  let st () = rng 0x5E7 in
  let hot = Sim.Workload.hotspot (st ()) ~n:16 ~m:8 ~n_vars:8 ~theta:0.8 in
  let bumps =
    Sim.Workload.semantic_counters (st ()) ~n:16 ~m:8 ~n_vars:8 ~theta:0.8
      ~read_frac:0.1
  in
  let zipf = Sim.Workload.zipf (st ()) ~n:64 ~m:2 ~n_vars:8 ~s:1.2 in
  let zipf_bumps =
    Sim.Workload.semantic_zipf (st ()) ~n:64 ~m:2 ~n_vars:8 ~s:1.2
      ~read_frac:0.1
  in
  let sgt syntax = Sched.Sgt.create ~syntax () in
  let semantic syntax = Sched.Semantic.create ~syntax () in
  let sharded shards syntax = Sched.Sharded.create ~shards ~syntax () in
  [
    ("sgt 16x8", sgt, hot, 480.);
    ("semantic 16x8", semantic, bumps, 745.);
    ("sharded 16x8", sharded 4, hot, 1510.);
    ("sgt 64x2", sgt, zipf, 1450.);
    ("semantic 64x2", semantic, zipf_bumps, 1800.);
    ("sharded 64x2", sharded 4, zipf, 3230.);
    ("sharded K=1 64x2", sharded 1, zipf, 1845.);
  ]

let test_setup_allocation () =
  List.iter
    (fun (name, make, syntax, limit) ->
      let w = build_words make syntax in
      if w > limit then
        Alcotest.failf "%s: %.0f minor words per build (ceiling %.0f)" name w
          limit)
    ceilings;
  (* One shard runs SGT's kernel on SGT's rows: the rest of the build
     (partition, the one shard's members, the delay cache's wiring)
     costs per transaction, 446 words over SGT's here. *)
  let zipf = Sim.Workload.zipf (rng 0x5E7) ~n:64 ~m:2 ~n_vars:8 ~s:1.2 in
  let sgt = build_words (fun syntax -> Sched.Sgt.create ~syntax ()) zipf in
  let k1 =
    build_words (fun syntax -> Sched.Sharded.create ~shards:1 ~syntax ()) zipf
  in
  if k1 -. sgt > 600. then
    Alcotest.failf "sharded K=1 64x2: %.0f minor words over SGT's (at most 600)"
      (k1 -. sgt)

(* [Partition.make] costs per variable and per transaction, never per
   step: on two hot-spot syntaxes of 16 transactions over the same 8
   variables, each transaction touching the same variables in both, one
   of 2 steps a transaction and one of 8, it allocates the same words.
   Each transaction reads the hot variable and one other, alternately,
   once at 16x2 and four times at 16x8. *)
let test_partition_per_step () =
  let pool = Array.init 8 (Printf.sprintf "v%d") in
  let hot m =
    Syntax.init pool (Array.make 16 m) (fun i j ->
        if j mod 2 = 0 then 0 else 1 + (i mod 7))
  in
  let short = hot 2 and long = hot 8 in
  check_int "same n_vars" (Syntax.n_vars short) (Syntax.n_vars long);
  List.iter
    (fun shards ->
      let words syntax =
        build_words (fun syntax -> Sched.Partition.make ~syntax ~shards) syntax
      in
      let w2 = words short and w8 = words long in
      if w2 <> w8 then
        Alcotest.failf "K=%d: %.0f minor words at 16x2, %.0f at 16x8" shards
          w2 w8)
    [ 1; 4; 8 ]

(* The arrival draw allocates its output and its Fenwick tree
   ([size + 1] slots, [size] the power of two at or above n) and nothing
   per draw. An array of more than 256 words is allocated in the major
   heap and counts no minor words, so at 256x2 both arrays do; at 16x8
   both are young. One word per draw would cost 2 (with its header), 256
   at 16x8 and 1024 at 256x2, far over the 16 words of slack. *)
let test_arrivals_allocation () =
  let young words = if words <= 256 then words + 1 else 0 in
  List.iter
    (fun (n, m, size) ->
      let fmt = Array.make n m in
      let st = rng n in
      let w = build_words (Combin.Interleave.random st) fmt in
      let limit = float (young (n * m) + young (size + 1) + 16) in
      if w > limit then
        Alcotest.failf "%dx%d: %.0f minor words per draw (ceiling %.0f)" n m w
          limit)
    [ (256, 2, 256); (16, 8, 16) ]

let suite =
  qsuite [ prop_pool_equals_make; prop_partition_reference ]
  @ [
      Alcotest.test_case "a pool-built syntax, by hand" `Quick test_pool_by_hand;
      Alcotest.test_case "every generator equals make" `Quick
        test_generators_equal_make;
      Alcotest.test_case "engine set-up allocation ceilings" `Quick
        test_setup_allocation;
      Alcotest.test_case "Partition.make allocates nothing per step" `Quick
        test_partition_per_step;
      Alcotest.test_case "arrival draw allocation ceilings" `Quick
        test_arrivals_allocation;
    ]
