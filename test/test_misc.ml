(* Coverage for the remaining API surface, plus the §5.4
   "unstructured variables" angle: 2PL commutes with variable renamings
   (which is why it can be optimal among separable policies on
   unstructured data), while 2PL' and tree locking depend on
   distinguished/structured variables. *)

open Util
open Core

(* --- renaming invariance --- *)

let rename_locked f (l : Locking.Locked.t) =
  Array.map
    (Array.map (fun s ->
         match s with
         | Locking.Locked.Lock x -> Locking.Locked.Lock (f x)
         | Locking.Locked.Unlock x -> Locking.Locked.Unlock (f x)
         | Locking.Locked.Action id -> Locking.Locked.Action id))
    l.Locking.Locked.txs

let prop_2pl_renaming_invariant =
  QCheck.Test.make ~name:"2PL commutes with variable renamings" ~count:80
    (QCheck.make (syntax_gen ~max_n:3 ~max_m:3 ~n_vars:3))
    (fun syntax ->
      let f v = v ^ "_r" in
      let before = Locking.Two_phase.apply (Syntax.rename f syntax) in
      let after = rename_locked f (Locking.Two_phase.apply syntax) in
      before.Locking.Locked.txs = after)

let test_2pl_prime_not_renaming_invariant () =
  (* swapping x and y moves the distinguished variable: the transforms
     differ beyond a consistent relabeling *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ] ] in
  let swap v = if v = "x" then "y" else if v = "y" then "x" else v in
  let before =
    Locking.Two_phase_prime.apply ~distinguished:"x" (Syntax.rename swap syntax)
  in
  let after =
    rename_locked swap (Locking.Two_phase_prime.apply ~distinguished:"x" syntax)
  in
  check_false "2PL' singles out x" (before.Locking.Locked.txs = after)

let test_mutex_renaming_invariant () =
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y" ] ] in
  let f v = v ^ "!" in
  let before = Locking.Mutex_policy.apply (Syntax.rename f syntax) in
  let after = rename_locked f (Locking.Mutex_policy.apply syntax) in
  (* the mutex name is not a data variable, so it is untouched on both
     sides only if the renaming fixes it; compare outputs instead *)
  check_int "same structure"
    (Array.length before.Locking.Locked.txs.(0))
    (Array.length after.(0))

(* --- smaller API corners --- *)

let test_schedule_prefix_positions () =
  let h = Schedule.of_interleaving [| 0; 1; 0 |] in
  check_int "prefix length" 2 (Array.length (Schedule.prefix h 2));
  let pos = Schedule.positions h in
  check_int "positions" 3 (List.length pos);
  check_true "first is T11"
    (match pos with
    | (id, 0) :: _ -> Names.equal_step id (Names.step 0 0)
    | _ -> false)

let test_names_pp () =
  Alcotest.(check string) "small" "T11" (Names.step_to_string (Names.step 0 0));
  Alcotest.(check string) "large" "T(12,4)"
    (Names.step_to_string (Names.step 11 3))

let test_interleave_fold () =
  let count = Combin.Interleave.fold [| 2; 1 |] (fun acc _ -> acc + 1) 0 in
  check_int "fold visits all" 3 count

let test_state_pp () =
  Alcotest.(check string) "state" "{a=1}"
    (State.to_string (State.of_ints [ ("a", 1) ]));
  Alcotest.(check string) "empty" "{}" (State.to_string State.empty)

let test_value_pp () =
  Alcotest.(check string) "int" "3" (Expr.Value.to_string (Expr.Value.Int 3));
  Alcotest.(check string) "bool" "true" (Expr.Value.to_string (Expr.Value.Bool true));
  Alcotest.(check string) "str" "\"a\"" (Expr.Value.to_string (Expr.Value.Str "a"));
  Alcotest.(check string) "domain" "[0..3]"
    (Format.asprintf "%a" Expr.Value.pp_domain (Expr.Value.Int_range (0, 3)))

let test_weak_sr_max_states_guard () =
  (* tiny exploration budget: the search self-limits without raising *)
  let fig1 = Examples.fig1 in
  let probes = [ State.of_ints [ ("x", 0) ] ] in
  let verdict =
    Weak_sr.check ~max_states:2 fig1 ~probes Examples.fig1_history
  in
  check_true "bounded exploration terminates"
    (match verdict with
    | Weak_sr.Weakly_serializable _ | Weak_sr.Refuted _ -> true)

let test_herbrand_term_size () =
  let t =
    Herbrand.App
      (Names.step 0 1, [ Herbrand.Init "x"; Herbrand.App (Names.step 1 0, []) ])
  in
  check_int "term size" 3 (Herbrand.term_size t)

let test_system_pp_smoke () =
  check_true "system renders"
    (String.length (Format.asprintf "%a" System.pp Examples.banking) > 100)

let test_syntax_errors () =
  check_true "empty system rejected"
    (try ignore (Syntax.make [||]); false with Invalid_argument _ -> true);
  check_true "var out of range"
    (try ignore (Syntax.var Examples.fig3_pair (Names.step 5 0)); false
     with Invalid_argument _ -> true)

let test_tree_spanning_single () =
  let h = [ ("a", "r") ] in
  Alcotest.(check (list string)) "single var" [ "a" ]
    (Locking.Tree_lock.spanning_subtree h [ "a" ]);
  Alcotest.(check (list string)) "empty" []
    (Locking.Tree_lock.spanning_subtree h [])

let test_tree_cross_trees_rejected () =
  let h = [] in
  (* two roots: no common tree *)
  check_true "cross-tree accesses rejected"
    (try ignore (Locking.Tree_lock.spanning_subtree h [ "a"; "b" ]); false
     with Invalid_argument _ -> true)

(* 2PL geometry: the common point is exactly the pair of phase shifts. *)
let prop_2pl_common_point_exists =
  QCheck.Test.make ~name:"2PL two-transaction blocks share a point"
    ~count:80
    (QCheck.make (syntax_gen ~max_n:2 ~max_m:4 ~n_vars:2))
    (fun syntax ->
      Syntax.n_transactions syntax <> 2
      ||
      let geo = Locking.Geometry.analyse (Locking.Two_phase.apply syntax) in
      match Locking.Geometry.blocks geo with
      | [] -> true
      | _ -> Locking.Geometry.common_point geo <> None)

(* legality of locked schedules is prefix-monotone *)
let prop_legal_prefix_monotone =
  QCheck.Test.make ~name:"locked legality is prefix-monotone" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair (syntax_gen ~max_n:2 ~max_m:3 ~n_vars:2) int))
    (fun (syntax, seed) ->
      let locked = Locking.Two_phase.apply syntax in
      let st = rng seed in
      let fmt = Locking.Locked.format locked in
      let il = Combin.Interleave.random st fmt in
      (not (Locking.Locked.legal locked il))
      || List.for_all
           (fun k -> Locking.Locked.legal_prefix locked (Array.sub il 0 k))
           (List.init (Array.length il) (fun k -> k + 1)))

let suite =
  [
    Alcotest.test_case "2PL' breaks renaming" `Quick test_2pl_prime_not_renaming_invariant;
    Alcotest.test_case "mutex renaming" `Quick test_mutex_renaming_invariant;
    Alcotest.test_case "schedule prefix/positions" `Quick test_schedule_prefix_positions;
    Alcotest.test_case "names printing" `Quick test_names_pp;
    Alcotest.test_case "interleave fold" `Quick test_interleave_fold;
    Alcotest.test_case "state printing" `Quick test_state_pp;
    Alcotest.test_case "value printing" `Quick test_value_pp;
    Alcotest.test_case "weak-sr state budget" `Quick test_weak_sr_max_states_guard;
    Alcotest.test_case "herbrand term size" `Quick test_herbrand_term_size;
    Alcotest.test_case "system printing" `Quick test_system_pp_smoke;
    Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
    Alcotest.test_case "tree spanning corners" `Quick test_tree_spanning_single;
    Alcotest.test_case "tree cross-tree rejected" `Quick test_tree_cross_trees_rejected;
  ]
  @ qsuite
      [
        prop_2pl_renaming_invariant;
        prop_2pl_common_point_exists;
        prop_legal_prefix_monotone;
      ]

(* --- last-mile coverage --- *)

let test_perm_apply () =
  Alcotest.(check (array string)) "apply"
    [| "c"; "a"; "b" |]
    (Combin.Perm.apply [| 2; 0; 1 |] [| "a"; "b"; "c" |])

let test_render_smoke () =
  let locked = Locking.Two_phase.apply Examples.fig3_pair in
  let fig = Locking.Render.figure locked in
  check_true "figure renders" (String.length fig > 50);
  check_true "has legend" (String.length (Locking.Render.axis_legend locked) > 10)

let prop_serial_order_roundtrip =
  QCheck.Test.make ~name:"serial order roundtrips" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 0 1000))
    (fun (n, seed) ->
      let st = rng seed in
      let fmt = Array.init n (fun _ -> 1 + Random.State.int st 3) in
      let order = Combin.Perm.random st n in
      match Schedule.serial_order (Schedule.serial fmt order) with
      | Some o -> o = order
      | None -> false)

(* SR is prefix-closed in the RMW model: the conflict graph of a prefix
   is a subgraph of the whole. *)
let prop_sr_prefix_closed =
  QCheck.Test.make ~name:"conflict serializability is prefix-closed"
    ~count:100
    (arbitrary_syntax_and_schedule ~max_n:3 ~max_m:3 ~n_vars:2)
    (fun (syntax, h) ->
      (not (Conflict.serializable syntax h))
      || List.for_all
           (fun k -> Conflict.prefix_serializable syntax h k)
           (List.init (Array.length h) (fun k -> k + 1)))

(* reachable_finals witnesses replay to their states. *)
let prop_reachable_witnesses_replay =
  QCheck.Test.make ~name:"reachable_finals witnesses replay" ~count:40
    QCheck.(int_range (-4) 4)
    (fun x ->
      let e = State.of_ints [ ("x", x) ] in
      List.for_all
        (fun (g, path) ->
          State.equal g (Exec.run_concatenation Examples.fig1 e path))
        (Weak_sr.reachable_finals ~max_len:3 Examples.fig1 e))

(* The information classes respect format at the bottom level. *)
let test_format_class () =
  let a = Examples.fig1 in
  let b = System.make (Syntax.of_lists [ [ "z"; "z" ]; [ "z" ] ])
      [| [| Expr.Ast.Local 0; Expr.Ast.Local 1 |]; [| Expr.Ast.Local 0 |] |]
  in
  check_true "same format, different syntax"
    (Info.same_class Info.Format_only a b);
  check_false "not syntactically equal" (Info.same_class Info.Syntactic a b)

let member k = function Obs.Json.Obj kvs -> List.assoc_opt k kvs | _ -> None

(* Regenerating BENCH_sched.json in place must keep top-level keys
   other tools put there (e.g. the checker-throughput section). *)
let test_bench_merge_preserving () =
  let module J = Obs.Json in
  let fresh = J.Obj [ ("benchmark", J.Str "b1"); ("results", J.Arr [ J.int 1; J.int 2 ]) ] in
  let existing =
    "{\"benchmark\": \"old\", \"checker\": {\"events_per_sec\": 9}, \
     \"note\": \"hand-added\"}"
  in
  let merged = J.merge ~existing fresh in
  check_true "merged round-trips"
    (J.parse (J.pretty merged) = Some merged);
  check_true "fresh keys win" (member "benchmark" merged = Some (J.Str "b1"));
  check_true "foreign keys preserved"
    (member "checker" merged
    = Some (J.Obj [ ("events_per_sec", J.Num "9") ]));
  check_true "annotations preserved"
    (member "note" merged = Some (J.Str "hand-added"));
  (* idempotent: merging the merge changes nothing *)
  check_true "merge idempotent"
    (J.merge ~existing:(J.pretty merged) merged = merged);
  (* an unparseable existing file never corrupts fresh output *)
  check_true "garbage existing ignored"
    (J.merge ~existing:"not json { at all" fresh = fresh);
  check_true "non-object existing ignored"
    (J.merge ~existing:"[1,2,3]" fresh = fresh);
  (* nothing to add: fresh already has every key *)
  check_true "no-op merge" (J.merge ~existing:"{\"benchmark\": 0}" fresh = fresh)

(* One smoke run shared by the tests below that only read its JSON. *)
let smoke_json =
  lazy Sim.Sched_bench.(to_json smoke (run smoke))

let committed_bench () =
  let path =
    if Sys.file_exists "../BENCH_sched.json" then "../BENCH_sched.json"
    else "BENCH_sched.json"
  in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let without k = function
  | Obs.Json.Obj kvs -> Obs.Json.Obj (List.remove_assoc k kvs)
  | j -> j

let test_bench_merge_preserves_sections () =
  (* regenerating over a file that holds a member the fresh report
     lacks (a hand-added note, or a member an earlier version wrote)
     must keep it; both trees come from real smoke runs, so this breaks
     if an emitter renames its member *)
  let module B = Sim.Sched_bench in
  let module J = Obs.Json in
  let existing = J.pretty (B.to_json B.smoke (B.run B.smoke)) in
  let fresh = without "twopc" (Lazy.force smoke_json) in
  check_true "fresh tree lacks the twopc member" (member "twopc" fresh = None);
  let merged = J.parse (J.pretty (J.merge ~existing fresh)) in
  let old = J.parse existing in
  let get k = Option.bind merged (member k) in
  check_true "smoke preset runs the 2PC section" (get "twopc" <> None);
  check_true "twopc section preserved across regeneration"
    (get "twopc" = Option.bind old (member "twopc"));
  check_true "twopc sweep content intact"
    (match get "twopc" with
    | Some t -> member "coordinator_crash" t <> None && member "sweep" t <> None
    | None -> false);
  check_true "fresh results win"
    (get "results" = Option.bind (J.parse (J.pretty fresh)) (member "results"))

(* The committed BENCH_sched.json carries a [parallel] member: merging
   a report without it over the file keeps it value-equal. *)
let test_bench_merge_committed () =
  let module J = Obs.Json in
  let existing = committed_bench () in
  let fresh = without "parallel" (Lazy.force smoke_json) in
  let merged = J.parse (J.pretty (J.merge ~existing fresh)) in
  let committed = Option.bind (J.parse existing) (member "parallel") in
  check_true "committed file has a parallel member" (committed <> None);
  check_true "parallel value-equal after merge"
    (Option.bind merged (member "parallel") = committed)

(* The smoke preset emits exactly the committed file's top-level members,
   each with rows, covers every mix of each section, and reports the
   preset's own settings: a section gated off, emptied or renamed, or a
   setting that moves, fails here. *)
let test_bench_smoke_members () =
  let module J = Obs.Json in
  let keys = function J.Obj kvs -> List.sort compare (List.map fst kvs) | _ -> [] in
  let fresh = Option.get (J.parse (J.pretty (Lazy.force smoke_json))) in
  let committed = Option.get (J.parse (committed_bench ())) in
  Alcotest.(check (list string)) "top-level members" (keys committed) (keys fresh);
  let rec has_rows name = function
    | J.Arr l -> check_true (name ^ " has rows") (l <> [])
    | J.Obj kvs ->
      check_true (name ^ " has members") (kvs <> []);
      List.iter
        (fun (k, v) ->
          match v with
          | J.Arr _ | J.Obj _ -> has_rows (name ^ "." ^ k) v
          | _ -> ())
        kvs
    | _ -> ()
  in
  List.iter
    (fun (k, v) -> if k <> "config" then has_rows k v)
    (match fresh with J.Obj kvs -> kvs | _ -> []);
  (* the mixes of a section's result rows (or of its ratio map's keys) *)
  let mixes_of rows =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> match member "mix" r with Some (J.Str m) -> Some m | _ -> None)
         rows)
  in
  let rows k =
    match Option.bind (member k fresh) (member "results") with
    | Some (J.Arr l) -> l
    | _ -> []
  in
  let key_mixes = function
    | Some (J.Obj kvs) ->
      List.sort_uniq compare
        (List.map (fun (k, _) -> List.hd (String.split_on_char '/' k)) kvs)
    | _ -> []
  in
  Alcotest.(check (list string)) "sharded mixes" [ "disjoint"; "hot"; "skewed" ]
    (key_mixes (member "sharded_speedup_vs_sgt" fresh));
  Alcotest.(check (list string)) "mv mixes"
    [ "rw-hot"; "rw-readmost"; "rw-uniform" ] (mixes_of (rows "mv_section"));
  Alcotest.(check (list string)) "semantic mixes" [ "ctr-hot"; "ctr-skewed" ]
    (mixes_of (rows "semantic_section"));
  check_true "parallel d2 against d1"
    (match Option.bind (member "parallel" fresh) (member "speedup_vs_d1") with
    | Some (J.Obj kvs) ->
      List.exists (fun (k, _) -> String.ends_with ~suffix:"/d2" k) kvs
    | _ -> false);
  let value path =
    List.fold_left (fun j k -> Option.bind j (member k)) (Some fresh) path
    |> Option.fold ~none:"missing" ~some:(J.compact ~spaced:true)
  in
  Alcotest.(check string) "config"
    {|{"n_vars": 3, "streams": 2, "min_time": 0, "seed": 42, "shard_ks": [4]}|}
    (value [ "config" ]);
  List.iter
    (fun (path, v) ->
      Alcotest.(check string) (String.concat "." path) v (value path))
    [
      ([ "mv_section"; "samples" ], "20");
      ([ "semantic_section"; "samples" ], "20");
      ([ "twopc"; "parts" ], "2");
      ([ "twopc"; "rounds_per_rate" ], "20");
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "perm apply" `Quick test_perm_apply;
      Alcotest.test_case "render smoke" `Quick test_render_smoke;
      Alcotest.test_case "format class" `Quick test_format_class;
      Alcotest.test_case "bench JSON merge preserves keys" `Quick
        test_bench_merge_preserving;
      Alcotest.test_case "bench JSON merge preserves missing sections" `Quick
        test_bench_merge_preserves_sections;
      Alcotest.test_case "bench JSON merge over the committed file" `Quick
        test_bench_merge_committed;
      Alcotest.test_case "bench smoke emits every committed member" `Quick
        test_bench_smoke_members;
    ]
  @ qsuite
      [
        prop_serial_order_roundtrip;
        prop_sr_prefix_closed;
        prop_reachable_witnesses_replay;
      ]
