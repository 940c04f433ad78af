(* Differential tests for the incremental SGT scheduler.

   [Sched.Sgt] (incremental conflict graph) must be
   decision-for-decision equivalent to [Sched.Sgt_ref] (the brute-force
   copy-and-recheck oracle it replaced): identical grant/delay traces on
   every interleaving of every small format, identical fixpoint sets,
   and identical driver statistics on large seeded workloads.

   The timed simulation is differentially checked against the untimed
   driver as well: [Sim.Des.run] decides through a [Sched.Driver], and
   with instantaneous arrivals in transaction order and scheduling
   dominating execution it submits requests in round-robin order, so
   its abort/deadlock counts must agree with [Sched.Driver.run] on the
   matching arrival sequence. Its stalls are resolved lazily, once no
   step executes, so contended workloads keep the driver's restart
   counts instead of thrashing through thousands of restarts. *)

open Util
open Core

(* ---------- decision traces ---------- *)

type decision = Names.step_id * Sched.Scheduler.response

(* Wrap a scheduler so every [attempt] outcome is appended to [trace].
   The driver consults nothing else, so equal traces mean the two
   schedulers are observationally identical to any driver. *)
let traced trace (s : Sched.Scheduler.t) =
  Sched.Scheduler.make ~name:s.Sched.Scheduler.name
    ~attempt:(fun id ->
      let r = s.Sched.Scheduler.attempt id in
      trace := (id, r) :: !trace;
      r)
    ~commit:s.Sched.Scheduler.commit ~on_abort:s.Sched.Scheduler.on_abort
    ~victim:s.Sched.Scheduler.victim ()

let same_stats (a : Sched.Driver.stats) (b : Sched.Driver.stats) =
  Schedule.equal a.Sched.Driver.output b.Sched.Driver.output
  && a.Sched.Driver.delays = b.Sched.Driver.delays
  && a.Sched.Driver.restarts = b.Sched.Driver.restarts
  && a.Sched.Driver.deadlocks = b.Sched.Driver.deadlocks
  && a.Sched.Driver.grants = b.Sched.Driver.grants

(* Run both SGT implementations over one arrival sequence and insist on
   identical decision traces and statistics. *)
let check_equiv syntax arrivals =
  let fmt = Syntax.format syntax in
  let t1 = ref [] and t2 = ref [] in
  let s1 =
    Sched.Driver.run (traced t1 (Sched.Sgt.create ~syntax ())) ~fmt ~arrivals
  in
  let s2 =
    Sched.Driver.run (traced t2 (Sched.Sgt_ref.create ~syntax)) ~fmt ~arrivals
  in
  check_true "identical decision traces" (!t1 = !t2);
  check_true "identical stats" (same_stats s1 s2)

(* every composition of [total] into positive parts, as formats *)
let compositions total =
  let rec go rem acc out =
    if rem = 0 then Array.of_list (List.rev acc) :: out
    else
      let rec parts p out =
        if p > rem then out else parts (p + 1) (go (rem - p) (p :: acc) out)
      in
      parts 1 out
  in
  go total [] []

(* a deterministic syntax for a format: variables drawn from a small
   pool, so repeated accesses to the same variable occur routinely *)
let syntax_of_fmt ~n_vars ~seed fmt =
  let st = rng seed in
  Syntax.make
    (Array.map
       (fun m ->
         Array.init m (fun _ -> var_names.(Random.State.int st n_vars)))
       fmt)

let test_exhaustive_small () =
  (* all formats up to total size 6, all interleavings, two contention
     levels *)
  for total = 2 to 6 do
    List.iter
      (fun fmt ->
        List.iter
          (fun (n_vars, seed) ->
            let syntax = syntax_of_fmt ~n_vars ~seed fmt in
            Combin.Interleave.iter fmt (fun arrivals ->
                check_equiv syntax (Array.copy arrivals)))
          [ (2, 17); (3, 23) ])
      (compositions total)
  done

let test_fixpoint_sets_agree () =
  (* Theorem 3's fixpoint characterisation must be preserved by the
     incremental rewrite: same fixpoint set as the oracle, which is in
     turn SR(T) (already covered by test_sched) *)
  List.iter
    (fun syntax ->
      let fmt = Syntax.format syntax in
      let fp_inc =
        Sched.Driver.fixpoint_of (fun () -> Sched.Sgt.create ~syntax ()) fmt
      in
      let fp_ref =
        Sched.Driver.fixpoint_of (fun () -> Sched.Sgt_ref.create ~syntax) fmt
      in
      check_int "fixpoint set size" (List.length fp_ref) (List.length fp_inc);
      List.iter2
        (fun a b -> check_true "fixpoint schedule" (Schedule.equal a b))
        fp_inc fp_ref)
    [
      Examples.hot_spot 2 2;
      Examples.hot_spot 3 2;
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
      Syntax.of_lists [ [ "x"; "x"; "y" ]; [ "y"; "x" ] ];
      Examples.fig1.System.syntax;
    ]

let test_repeated_access_regression () =
  (* regression for the duplicate-history bug: a transaction touching
     the same variable k times must behave exactly like the oracle (and
     its per-variable history must not blow up the edge set — observable
     here as decision divergence on the k-fold hot spot) *)
  let syntaxes =
    [
      Syntax.of_lists [ [ "x"; "x" ]; [ "x"; "x" ]; [ "x"; "x" ] ];
      Syntax.of_lists [ [ "x"; "x"; "x"; "x" ]; [ "x"; "x"; "x"; "x" ] ];
      Syntax.of_lists [ [ "x"; "x"; "y" ]; [ "y"; "x" ]; [ "x"; "y"; "y" ] ];
    ]
  in
  List.iter
    (fun syntax ->
      let fmt = Syntax.format syntax in
      Combin.Interleave.iter fmt (fun arrivals ->
          check_equiv syntax (Array.copy arrivals));
      (* serial arrivals must sail through with zero delays *)
      let serial =
        Combin.Interleave.serial fmt (Array.init (Array.length fmt) Fun.id)
      in
      let s =
        Sched.Driver.run (Sched.Sgt.create ~syntax ()) ~fmt ~arrivals:serial
      in
      check_true "serial zero-delay" (Sched.Driver.zero_delay s))
    syntaxes

let prop_random_large =
  (* seeded workloads beyond exhaustive reach: n, m >= 8 *)
  QCheck.Test.make ~count:12 ~name:"SGT = SGT-ref on large seeded workloads"
    QCheck.(make Gen.int)
    (fun seed ->
      let st = Random.State.make [| 0xD1FF; seed |] in
      let n = 8 + Random.State.int st 3 in
      let m = 8 + Random.State.int st 3 in
      let syntax = Sim.Workload.uniform st ~n ~m ~n_vars:6 in
      let fmt = Syntax.format syntax in
      let ok = ref true in
      for _ = 1 to 3 do
        let arrivals = Combin.Interleave.random st fmt in
        let t1 = ref [] and t2 = ref [] in
        let s1 =
          Sched.Driver.run
            (traced t1 (Sched.Sgt.create ~syntax ()))
            ~fmt ~arrivals
        in
        let s2 =
          Sched.Driver.run
            (traced t2 (Sched.Sgt_ref.create ~syntax))
            ~fmt ~arrivals
        in
        ok :=
          !ok && !t1 = !t2 && same_stats s1 s2
          && Conflict.serializable syntax s1.Sched.Driver.output
      done;
      !ok)

(* ---------- the conflict-graph kernel ---------- *)

module Cg = Sched.Cgraph

(* A kernel over variable-id rows and, when typed, op rows, flattened as
   [Syntax] stores steps: one id array, its offsets, one code byte per
   step. *)
let kernel ?sink ?ops ~n_vars rows =
  let start = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun i row -> start.(i + 1) <- start.(i) + Array.length row) rows;
  let code o = Char.chr (Op.index o) in
  let codes =
    match ops with
    | None -> Bytes.empty
    | Some ops ->
      String.to_bytes
        (String.concat ""
           (Array.to_list
              (Array.map
                 (fun row ->
                   String.init (Array.length row) (fun j -> code row.(j)))
                 ops)))
  in
  Cg.create ?sink ~n_vars ~vars:(Array.concat (Array.to_list rows)) ~start
    ~codes ()

(* Every kernel-backed engine against the oracle on one arrival stream:
   same decisions, same stats, same per-transaction abort counts. Returns
   the oracle's restart count. *)
let check_engines syntax arrivals =
  let fmt = Syntax.format syntax in
  let run mk =
    let t = ref [] in
    let s =
      Sched.Driver.run (traced t (mk ())) ~fmt ~arrivals:(Array.copy arrivals)
    in
    (!t, s)
  in
  let t_ref, s_ref = run (fun () -> Sched.Sgt_ref.create ~syntax) in
  List.iter
    (fun (name, mk) ->
      let t, s = run mk in
      check_true (name ^ " = SGT-ref decisions") (t = t_ref);
      check_true (name ^ " = SGT-ref stats") (same_stats s s_ref);
      check_true (name ^ " = SGT-ref aborts")
        (s.Sched.Driver.aborts = s_ref.Sched.Driver.aborts))
    [
      ("SGT", fun () -> Sched.Sgt.create ~syntax ());
      ("semantic", fun () -> Sched.Semantic.create ~syntax ());
      ("sharded K=1", fun () -> Sched.Sharded.create ~shards:1 ~syntax ());
    ];
  s_ref.Sched.Driver.restarts

let test_abort_frees_completed () =
  (* T0 = [x; y], T1 = [x], T2 = [z]. T1 completes behind T0's edge, so
     it is not a source and stays; T0's abort frees it, but only the next
     completion (T2's) prunes it *)
  let g =
    kernel ~n_vars:3 [| [| 0; 1 |]; [| 0 |]; [| 2 |] |]
  in
  Cg.grant g 0 0;
  Cg.grant g 1 0;
  Cg.complete g 1;
  check_true "T1 held by T0's edge" (Cg.live g 1);
  check_int "nothing removed yet" 0 (Cg.version g);
  Cg.abort g 0;
  check_true "freed T1 waits for a completion" (Cg.live g 1);
  check_int "the abort is one removal" 1 (Cg.version g);
  Cg.grant g 2 0;
  Cg.complete g 2;
  check_false "the next completion prunes T1" (Cg.live g 1 || Cg.live g 2);
  check_int "T1 and T2 pruned" 3 (Cg.version g);
  (* the same shape under the driver: T0 completes behind T1's y edge,
     T1's x is refused, the stall aborts T1, and T0 is pruned only when
     T1's second incarnation completes *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  check_int "one stall abort" 1 (check_engines syntax [| 0; 1; 0; 1 |])

(* Clear decisions allocate nothing with the null sink: 1000 SGT
   [attempt]s of a step behind a three-member chain list, each a clear
   refusal search that reads the list at its head, and 1000
   chain-flagged [closes_cycle_any_of] answers of [false], each with a
   bounded search. An optional argument on either path would box its
   value on every call. *)
let test_clear_decisions_allocate_nothing () =
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    Gc.minor_words () -. before
  in
  let syntax = Syntax.of_lists (List.init 4 (fun _ -> [ "x"; "y" ])) in
  let s = Sched.Sgt.create ~syntax () in
  for tx = 0 to 2 do
    let id = Names.step tx 0 in
    check_true "chain member granted" (s.Sched.Scheduler.attempt id = Grant);
    s.Sched.Scheduler.commit id
  done;
  let id = Names.step 3 0 in
  check_true "the request is clear" (s.Sched.Scheduler.attempt id = Grant);
  let attempt () = ignore (s.Sched.Scheduler.attempt id) in
  Alcotest.(check (float 0.)) "words for 1000 clear attempts" 0. (words attempt);
  let g = Digraph.Acyclic.create 5 in
  List.iter
    (fun (u, v) ->
      ignore (Digraph.Acyclic.add_edges_acyclic g ~sources:[ u ] ~targets:[ v ]))
    [ (3, 4); (0, 1) ];
  let lists = [| [ 4; 3 ] |] and pick = [| 0 |] and chain = [| true |] in
  let search () =
    Digraph.Acyclic.closes_cycle_any_of g ~excluding:(-1) ~lists ~base:0 ~pick
      ~chain ~target:0
  in
  check_false "the head is out of reach" (search ());
  Alcotest.(check (float 0.))
    "words for 1000 clear chain searches" 0.
    (words (fun () -> ignore (search ())))

(* A self-conflicting accessor list costs one edge per member, not one
   per pair: n untyped transactions granted in turn on one variable
   leave the n-1 edges of a chain, where the full conflict graph has
   n(n-1)/2. Aborting a middle member bypasses it, keeping the chain's
   reachability with n-2 edges; pruning the oldest bypasses nothing.
   Each transaction's second step keeps it from completing early. *)
let test_chain_edges () =
  let chain n =
    let g = kernel ~n_vars:1 (Array.make n [| 0; 0 |]) in
    for l = 0 to n - 1 do
      Cg.grant g l 0
    done;
    g
  in
  let edges g = Digraph.Acyclic.n_edges (Cg.graph g) in
  for n = 2 to 8 do
    let name what = Printf.sprintf "n=%d: %s" n what in
    let g = chain n in
    check_int (name "one edge per member after the first") (n - 1) (edges g);
    if n > 2 then begin
      let m = n / 2 in
      Cg.abort g m;
      check_int (name "an abort in the middle bypasses it") (n - 2) (edges g);
      let reach = Digraph.reachable (Digraph.Acyclic.to_digraph (Cg.graph g)) in
      for u = 0 to n - 1 do
        for w = u + 1 to n - 1 do
          if u <> m && w <> m then
            check_true (name (Printf.sprintf "%d reaches %d" u w))
              (reach u).(w)
        done
      done
    end;
    let g = chain n in
    Cg.grant g 0 1;
    Cg.complete g 0;
    check_false (name "the oldest is pruned") (Cg.live g 0);
    check_int (name "a prune adds no edge") (n - 2) (edges g)
  done;
  (* typed: Update T0, Update T1, Read T2, Update T3. The Update list is
     a chain and the Read list is not, so T2 gets its edge from the
     Update head T1 alone, and T3 from T1 and T2. Aborting T1 must link
     T0 to the Read as well as to the next Update. *)
  let ops = [| Op.Update; Op.Update; Op.Read; Op.Update |] in
  let g =
    kernel ~ops:(Array.map (fun o -> [| o; o |]) ops) ~n_vars:1
      (Array.make 4 [| 0; 0 |])
  in
  for l = 0 to 3 do
    Cg.grant g l 0
  done;
  let graph = Cg.graph g in
  Alcotest.(check (list (pair int int)))
    "typed chain" [ (0, 1); (1, 2); (1, 3); (2, 3) ]
    (Digraph.Acyclic.edges graph);
  Cg.abort g 1;
  Alcotest.(check (list (pair int int)))
    "the older Update reaches past the aborted one"
    [ (0, 2); (0, 3); (2, 3) ]
    (Digraph.Acyclic.edges graph)

(* Rows that repeat entries. [grant] stores each (variable, class) entry
   once, and [create] gives a vertex one held slot per distinct entry of
   its row: two here, of four steps. Three transactions share one row,
   untyped [x x y x], or typed [Incr x; Decr x; Read x; Incr x] (Incr
   and Decr share a class). A script requests each one's next step,
   aborts it and requests again: every decision is the full conflict
   graph's, and after each abort no accessor list holds the aborted
   vertex. Its own steps find sources only where the model has some,
   and no backward search from another's steps marks it. Sized one slot
   short, a vertex's second entry lands in its neighbour's first slot,
   or past the end, and an abort leaves the vertex on a list. The
   untyped row runs through every kernel engine too, against SGT-ref on
   every interleaving. *)
let test_repeat_entry_rows () =
  let run name ~vars ~ops =
    let n = 3 and m = Array.length vars in
    let g =
      kernel ~ops:(Array.make n ops) ~n_vars:2 (Array.make n vars)
    in
    let acc = Array.make 2 [] and edges = Digraph.create n in
    let pos = Array.make n 0 and refused = ref 0 in
    let request i =
      let j = pos.(i) in
      let v = vars.(j) and op = ops.(j) in
      let srcs =
        List.filter_map
          (fun (u, o) ->
            if u <> i && Commute.conflicts o op then Some u else None)
          acc.(v)
      in
      let probe = Digraph.copy edges in
      List.iter (fun u -> Digraph.add_edge probe u i) srcs;
      let cycle = Digraph.has_cycle probe in
      check_true (name ^ ": decision") (Cg.refuses g i j = cycle);
      if cycle then incr refused
      else begin
        Cg.grant g i j;
        List.iter (fun u -> Digraph.add_edge edges u i) srcs;
        if not (List.mem (i, op) acc.(v)) then acc.(v) <- (i, op) :: acc.(v);
        pos.(i) <- j + 1
      end
    in
    let abort i =
      Cg.abort g i;
      Array.iteri
        (fun v es -> acc.(v) <- List.filter (fun (u, _) -> u <> i) es)
        acc;
      List.iter (fun v -> Digraph.remove_edge edges i v) (Digraph.succ edges i);
      List.iter (fun u -> Digraph.remove_edge edges u i) (Digraph.pred edges i);
      pos.(i) <- 0;
      for j = 0 to m - 1 do
        let conflicting (_, o) = Commute.conflicts o ops.(j) in
        check_true (name ^ ": the aborted vertex's sources")
          (Cg.has_sources g i j = List.exists conflicting acc.(vars.(j)));
        for u = 0 to n - 1 do
          if u <> i then begin
            Cg.mark_reaching_sources g u j;
            check_false (name ^ ": no list holds the aborted vertex")
              (Digraph.Acyclic.marked (Cg.graph g) i)
          end
        done
      done
    in
    List.iter
      (function
        | `Req i -> if pos.(i) < m then request i
        | `Abort i -> abort i)
      [ `Req 0; `Req 0; `Req 0; `Req 0; `Req 1; `Req 1; `Req 2; `Abort 0;
        `Req 0; `Req 0; `Req 0; `Req 0; `Req 1; `Req 1; `Req 2; `Req 2;
        `Req 2; `Abort 1; `Req 1; `Req 1; `Req 1; `Req 1; `Req 2; `Req 2;
        `Abort 2; `Req 2; `Req 2; `Req 2; `Req 2; `Abort 0; `Abort 1;
        `Abort 2 ];
    !refused
  in
  check_int "untyped: refusals" 7
    (run "untyped" ~vars:[| 0; 0; 1; 0 |] ~ops:(Array.make 4 Op.Update));
  check_int "typed: refusals" 7
    (run "typed" ~vars:[| 0; 0; 0; 0 |]
       ~ops:[| Op.Incr; Op.Decr; Op.Read; Op.Incr |]);
  let syntax =
    Syntax.of_lists
      [ [ "x"; "x"; "y"; "x" ]; [ "x"; "x"; "y"; "x" ]; [ "y"; "x" ] ]
  in
  Combin.Interleave.iter (Syntax.format syntax) (fun arrivals ->
      ignore (check_engines syntax (Array.copy arrivals)))

(* The delay cache by hand, over 7 transactions. Witnesses mix
   transaction ids with coordinator ids [-1 - c], as the sharded
   engine's summary refusals do: T0's step 2 runs through coordinator 0,
   T1's step 0 through T3 mid-path, T2's step 1 through coordinator 1,
   and all three end at T5. An abort clears exactly the entries whose
   witness holds it: none for T6, on no witness; T2's own for T2, its
   requester; T0's for coordinator 0; T1's for T3; all three for T5. *)
let test_refusal_cache () =
  let r = Cg.refusals 7 in
  let refuse_all () =
    Cg.refuse r 0 2 [| 0; 4; -1; 5 |];
    Cg.refuse r 1 0 [| 1; 3; 5 |];
    Cg.refuse r 2 1 [| 2; -2; 5 |]
  in
  let check after blocked paths =
    Alcotest.(check (array int)) (after ^ ": blocked") blocked r.Cg.blocked;
    Alcotest.(check (array (array int))) (after ^ ": path") paths r.Cg.path
  in
  let w0 = [| 0; 4; -1; 5 |] and w1 = [| 1; 3; 5 |] and w2 = [| 2; -2; 5 |] in
  let none = [||] in
  check "empty" (Array.make 7 (-1)) (Array.make 7 none);
  refuse_all ();
  check "refused" [| 2; 0; 1; -1; -1; -1; -1 |]
    [| w0; w1; w2; none; none; none; none |];
  Cg.clear_through r 6;
  check "T6, on no witness" [| 2; 0; 1; -1; -1; -1; -1 |]
    [| w0; w1; w2; none; none; none; none |];
  Cg.clear_through r 2;
  check "T2, a requester" [| 2; 0; -1; -1; -1; -1; -1 |]
    [| w0; w1; none; none; none; none; none |];
  Cg.clear_through r (-1 - 0);
  check "coordinator 0" [| -1; 0; -1; -1; -1; -1; -1 |]
    [| none; w1; none; none; none; none; none |];
  Cg.clear_through r 3;
  check "T3, mid-path" (Array.make 7 (-1)) (Array.make 7 none);
  refuse_all ();
  Cg.clear_through r 5;
  check "T5, on every witness" (Array.make 7 (-1)) (Array.make 7 none)

let test_abort_heavy_corpus () =
  let restarts =
    List.fold_left
      (fun acc (syntax, arrivals) -> acc + check_engines syntax arrivals)
      0 (abort_heavy_corpus 60)
  in
  (* 889 on these seeds *)
  check_true "the corpus is abort-heavy" (restarts >= 800)

(* The searches SGT runs for its refusals ([refusal_count]). The cache
   keyed on each refusal's witness path answers every retry until a
   transaction on the path aborts. Keyed on the removal version, which
   prunes bump too, the same corpus searched 3936 times. 1346 -> 1668
   when the kernel began to store one edge per accessor-list head: a
   witness now runs along the list through every member between the
   requester and the accessor it reaches, so an abort clears more
   refusals and their retries search again. *)
let test_refusal_count () =
  check_int "fresh refusals on the abort-heavy corpus" 1668
    (refusal_count
       (fun ~sink syntax -> Sched.Sgt.create ~sink ~syntax ())
       (abort_heavy_corpus 60))

(* A cached Delay must be one a fresh search makes. The engine under
   test runs under the driver; every [commit] and [on_abort] it receives
   is logged, and each Delay it answers is re-asked of a fresh engine
   replayed through the log, which must Delay too. Commits and aborts
   alone decide an engine's graphs, so the replica holds the same state
   with an empty cache. Returns the number of delays checked and the
   number a fresh engine did not repeat. *)
let check_replay mk syntax arrivals =
  let log = ref [] in
  let s = mk () in
  let fresh id =
    let f = mk () in
    List.iter
      (function
        | `Commit c -> f.Sched.Scheduler.commit c
        | `Abort tx -> f.Sched.Scheduler.on_abort tx)
      (List.rev !log);
    f.Sched.Scheduler.attempt id
  in
  let delays = ref 0 and unrepeated = ref 0 in
  let wrapped =
    Sched.Scheduler.make ~name:s.Sched.Scheduler.name
      ~attempt:(fun id ->
        let r = s.Sched.Scheduler.attempt id in
        if r = Sched.Scheduler.Delay then begin
          incr delays;
          if fresh id <> Sched.Scheduler.Delay then incr unrepeated
        end;
        r)
      ~commit:(fun id ->
        log := `Commit id :: !log;
        s.Sched.Scheduler.commit id)
      ~on_abort:(fun tx ->
        log := `Abort tx :: !log;
        s.Sched.Scheduler.on_abort tx)
      ~victim:s.Sched.Scheduler.victim ()
  in
  ignore (Sched.Driver.run wrapped ~fmt:(Syntax.format syntax) ~arrivals);
  (!delays, !unrepeated)

let test_replay_differential () =
  let sharded ?(twopc = false) shards syntax () =
    let commit_cross =
      if twopc then Some (Sched.Twopc.commit (Sched.Twopc.service ~shards ()))
      else None
    in
    Sched.Sharded.create ~shards ?commit_cross ~syntax ()
  in
  let engines syntax =
    [
      ("SGT", fun () -> Sched.Sgt.create ~syntax ());
      ("sharded K=2", sharded 2 syntax);
      ("sharded K=4", sharded 4 syntax);
      ("sharded-2pc K=4", sharded ~twopc:true 4 syntax);
    ]
  in
  let zipf =
    List.init 25 (fun seed ->
        let st = Random.State.make [| 0x2E9A; seed |] in
        let n = 8 + Random.State.int st 9 in
        let m = 2 + Random.State.int st 3 in
        let n_vars = 6 + Random.State.int st 10 in
        let syntax = Sim.Workload.zipf st ~n ~m ~n_vars ~s:1.1 in
        (syntax, Combin.Interleave.random st (Syntax.format syntax)))
  in
  let ctr =
    List.init 8 (fun seed ->
        let st = Random.State.make [| 0xC7A; seed |] in
        let n = 6 + Random.State.int st 6 in
        let syntax =
          Sim.Workload.semantic_counters st ~n ~m:3 ~n_vars:3 ~theta:0.7
            ~read_frac:0.3
        in
        (syntax, Combin.Interleave.random st (Syntax.format syntax)))
  in
  let checked = Hashtbl.create 8 in
  let run (name, mk) (syntax, arrivals) =
    let d, u = check_replay mk syntax (Array.copy arrivals) in
    check_int (name ^ ": every delay repeats on a fresh engine") 0 u;
    Hashtbl.replace checked name
      (d + Option.value (Hashtbl.find_opt checked name) ~default:0)
  in
  List.iter
    (fun (syntax, arrivals) ->
      List.iter (fun e -> run e (syntax, arrivals)) (engines syntax))
    (abort_heavy_corpus 12 @ zipf);
  List.iter
    (fun (syntax, arrivals) ->
      run
        ("semantic", fun () -> Sched.Semantic.create ~syntax ())
        (syntax, arrivals))
    ctr;
  Hashtbl.iter
    (fun name d -> check_true (name ^ " delays were checked") (d > 0))
    checked

(* The kernel against a brute-force model of the removal it replaced:
   (transaction, op) entries per variable, the full conflict graph (an
   edge from every conflicting accessor at each grant) and a full scan
   for prunable vertices after every completion. The kernel keeps only
   the head edge of a self-conflicting list and bypasses removed
   members, so its edge set is not the model's. After every random
   grant, refusal or abort the live set and [version] must agree, and:
   every kernel edge is a model edge; the two transitive closures are
   equal; consecutive members of every self-conflicting list are joined
   by a kernel path, the older reaching the newer; and each grant's
   [Edge_added] events name exactly the model's conflicting accessors.
   Odd seeds carry typed ops, which checks the compiled conflict classes
   against [Commute.conflicts] as well; their reads catch a bypass that
   links only the successors on the removed member's own list.

   It checks the delay cache's lemma too: each refusal's witness path
   ([Digraph.Acyclic.last_path]) keeps every edge, and the request stays
   refused, across later grants and prunes, until a transaction on the
   path aborts. And the repeat-entry lemma that lets [Cg.grant] skip edge
   insertion: a transaction granted a step on a variable it already holds
   with an op of the same commute row has every conflicting source's
   edge already. *)
let test_cgraph_model () =
  let typed_ops =
    [| Op.Read; Op.Incr; Op.Decr; Op.Update; Op.Write; Op.Max |]
  in
  let row o = List.map (Commute.commutes o) Op.all in
  (* The transactions holding an op of [o]'s class in a variable's
     entries [es] (newest first), oldest first by first grant: a
     transaction may hold two ops of one class. *)
  let class_members es o =
    List.rev es
    |> List.filter_map (fun (u, o') -> if row o' = row o then Some u else None)
    |> List.fold_left
         (fun seen u -> if List.mem u seen then seen else u :: seen)
         []
    |> List.rev
  in
  let rec joined g = function
    | u :: (w :: _ as rest) -> (Digraph.reachable g u).(w) && joined g rest
    | _ -> true
  in
  (* repeat-entry grants checked: untyped, typed *)
  let repeats = [| 0; 0 |] in
  for seed = 0 to 199 do
    let st = rng seed in
    let n = 2 + Random.State.int st 5 in
    let n_vars = 1 + Random.State.int st 3 in
    let typed = seed mod 2 = 1 in
    let len = Array.init n (fun _ -> 1 + Random.State.int st 3) in
    let rows =
      Array.map (fun m -> Array.init m (fun _ -> Random.State.int st n_vars)) len
    in
    let ops =
      Array.map
        (fun m ->
          Array.init m (fun _ ->
              if typed then
                typed_ops.(Random.State.int st (Array.length typed_ops))
              else Op.Update))
        len
    in
    let events = Obs.Sink.Memory.create () in
    let sink = Obs.Sink.Memory.sink events in
    let g =
      if typed then
        kernel ~sink ~ops ~n_vars rows
      else kernel ~sink ~n_vars rows
    in
    let acc = Array.make n_vars [] in
    let edges = Digraph.create n in
    let live = Array.make n false and completed = Array.make n false in
    let version = ref 0 and pos = Array.make n 0 in
    (* per transaction, its standing refusal: (step, witness path) *)
    let witness = Array.make n None in
    let forget i =
      incr version;
      Array.iteri
        (fun v es -> acc.(v) <- List.filter (fun (u, _) -> u <> i) es)
        acc;
      live.(i) <- false;
      List.iter (fun v -> Digraph.remove_edge edges i v) (Digraph.succ edges i);
      List.iter (fun u -> Digraph.remove_edge edges u i) (Digraph.pred edges i)
    in
    let rec prune () =
      let victim = ref (-1) in
      for i = n - 1 downto 0 do
        if completed.(i) && live.(i) && Digraph.pred edges i = [] then
          victim := i
      done;
      if !victim >= 0 then begin
        forget !victim;
        prune ()
      end
    in
    for _ = 1 to 60 do
      let i = Random.State.int st n in
      let j = pos.(i) in
      if j < len.(i) then
        if Random.State.int st 5 = 0 then begin
          Cg.abort g i;
          forget i;
          pos.(i) <- 0;
          Array.iteri
            (fun t w ->
              match w with
              | Some (_, path) when Array.mem i path -> witness.(t) <- None
              | _ -> ())
            witness
        end
        else begin
          let v = rows.(i).(j) and op = ops.(i).(j) in
          let srcs =
            List.filter_map
              (fun (u, o) ->
                if u <> i && Commute.conflicts o op then Some u else None)
              acc.(v)
          in
          let probe = Digraph.copy edges in
          List.iter (fun u -> Digraph.add_edge probe u i) srcs;
          let refused = Digraph.has_cycle probe in
          check_true "admission" (Cg.refuses g i j = refused);
          if refused then
            witness.(i) <- Some (j, Digraph.Acyclic.last_path (Cg.graph g));
          if not refused then begin
            (* the repeat-entry lemma: a transaction already on [v] in
               this step's commute row has every edge the grant names *)
            let same_row o =
              List.for_all
                (fun x -> Commute.commutes o x = Commute.commutes op x)
                Op.all
            in
            if List.exists (fun (u, o) -> u = i && same_row o) acc.(v) then begin
              repeats.(seed mod 2) <- repeats.(seed mod 2) + 1;
              check_true "repeat entry: its edges are present"
                (List.for_all (fun u -> Digraph.has_edge edges u i) srcs)
            end;
            Obs.Sink.Memory.clear events;
            Cg.grant g i j;
            let named =
              List.filter_map
                (function
                  | _, Obs.Event.Edge_added { src; dst } ->
                    check_int "an edge event names the requester" i dst;
                    Some src
                  | _ -> None)
                (Obs.Sink.Memory.events events)
            in
            check_true "edge events = the conflicting accessors"
              (List.sort_uniq compare named = List.sort_uniq compare srcs);
            List.iter (fun u -> Digraph.add_edge edges u i) srcs;
            if not (List.mem (i, op) acc.(v)) then acc.(v) <- (i, op) :: acc.(v);
            live.(i) <- true;
            pos.(i) <- j + 1;
            if j + 1 = len.(i) then begin
              Cg.complete g i;
              completed.(i) <- true;
              prune ()
            end
          end
        end;
      Array.iteri
        (fun t w ->
          match w with
          | None -> ()
          | Some (j, path) ->
            let edges_kept =
              List.for_all
                (fun i ->
                  Digraph.Acyclic.has_edge (Cg.graph g) path.(i - 1) path.(i))
                (List.init (Array.length path - 1) succ)
            in
            check_true "witness starts at the requester" (path.(0) = t);
            check_true "witness edges kept" edges_kept;
            check_true "refusal stands" (Cg.refuses g t j))
        witness;
      check_int "version" !version (Cg.version g);
      check_true "live set"
        (List.for_all (fun i -> Cg.live g i = live.(i)) (List.init n Fun.id));
      let kernel = Digraph.Acyclic.to_digraph (Cg.graph g) in
      check_true "kernel edges are model edges"
        (List.for_all
           (fun (u, v) -> Digraph.has_edge edges u v)
           (Digraph.edges kernel));
      check_true "closure"
        (Digraph.edges (Digraph.transitive_closure kernel)
        = Digraph.edges (Digraph.transitive_closure edges));
      Array.iter
        (fun es ->
          List.iter
            (fun (_, o) ->
              if Commute.conflicts o o then
                check_true "chain members joined"
                  (joined kernel (class_members es o)))
            es)
        acc
    done
  done;
  check_true "untyped repeat entries checked" (repeats.(0) > 0);
  check_true "typed repeat entries checked" (repeats.(1) > 0)

(* ---------- DES vs Driver ---------- *)

(* instantaneous arrivals in index order + scheduling that dominates
   execution: the DES serves requests round-robin, matching this
   arrival sequence for the untimed driver *)
let round_robin fmt =
  let n = Array.length fmt in
  let acc = ref [] in
  let maxm = Array.fold_left max 0 fmt in
  for j = 0 to maxm - 1 do
    for i = 0 to n - 1 do
      if j < fmt.(i) then acc := i :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

let des_params =
  { Sim.Des.arrival_rate = 1e6; exec_time = 0.001; sched_time = 1.; seed = 1 }

let des syntax mk = Sim.Des.run des_params ~syntax ~scheduler:mk

let driver syntax mk =
  let fmt = Syntax.format syntax in
  Sched.Driver.run (mk ()) ~fmt ~arrivals:(round_robin fmt)

let test_des_driver_corpus () =
  (* fixed corpus: both SGT implementations agree exactly with the
     driver on aborts and deadlocks, and so does 2PL on three small
     cases *)
  let cases =
    [
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
      Syntax.of_lists [ [ "x"; "y"; "z" ]; [ "z"; "x" ]; [ "y"; "z" ] ];
      Syntax.of_lists [ [ "x"; "x" ]; [ "x"; "x" ]; [ "x"; "x" ] ];
      (let st = Random.State.make [| 7 |] in
       Sim.Workload.uniform st ~n:4 ~m:4 ~n_vars:3);
      (let st = Random.State.make [| 8 |] in
       Sim.Workload.uniform st ~n:6 ~m:5 ~n_vars:4);
    ]
  in
  List.iter
    (fun syntax ->
      List.iter
        (fun mk ->
          let d = des syntax mk in
          let s = driver syntax mk in
          check_int "restarts agree" s.Sched.Driver.restarts
            d.Sim.Des.restarts;
          check_int "deadlocks agree" s.Sched.Driver.deadlocks
            d.Sim.Des.deadlocks)
        [
          (fun () -> Sched.Sgt.create ~syntax ());
          (fun () -> Sched.Sgt_ref.create ~syntax);
        ])
    cases;
  (* low-contention 2PL cases: the DES stalls where the driver does *)
  List.iter
    (fun syntax ->
      let mk () = Sched.Tpl_sched.create_2pl ~syntax () in
      let d = des syntax mk in
      let s = driver syntax mk in
      check_int "2PL restarts agree" s.Sched.Driver.restarts
        d.Sim.Des.restarts)
    [
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
      Syntax.of_lists [ [ "x"; "y"; "z" ]; [ "z"; "x" ]; [ "y"; "z" ] ];
      Syntax.of_lists [ [ "x"; "x" ]; [ "x"; "x" ]; [ "x"; "x" ] ];
    ]

let test_des_driver_sweep () =
  (* deterministic sweep: SGT within one abort of the driver everywhere
     (service order inside a scheduling round can differ), SGT = SGT-ref
     inside the DES, and the thrash regression stays dead — before the
     fix a contended 6x5 workload burned 13457 restarts where the
     driver pays 5 *)
  for seed = 0 to 99 do
    let st = Random.State.make [| seed |] in
    let n = 2 + Random.State.int st 6 in
    let m = 2 + Random.State.int st 5 in
    let n_vars = 2 + Random.State.int st 4 in
    let syntax = Sim.Workload.uniform st ~n ~m ~n_vars in
    let d = des syntax (fun () -> Sched.Sgt.create ~syntax ()) in
    let dref = des syntax (fun () -> Sched.Sgt_ref.create ~syntax) in
    let s = driver syntax (fun () -> Sched.Sgt.create ~syntax ()) in
    check_int "SGT = SGT-ref restarts in DES" dref.Sim.Des.restarts
      d.Sim.Des.restarts;
    check_int "SGT = SGT-ref deadlocks in DES" dref.Sim.Des.deadlocks
      d.Sim.Des.deadlocks;
    check_true "SGT within one abort of driver"
      (abs (d.Sim.Des.restarts - s.Sched.Driver.restarts) <= 1);
    check_true "SGT restarts bounded" (d.Sim.Des.restarts <= n + m);
    let dtpl = des syntax (fun () -> Sched.Tpl_sched.create_2pl ~syntax ()) in
    check_true "2PL restarts bounded" (dtpl.Sim.Des.restarts <= 8 * n)
  done

(* ---------- Intq ---------- *)

let test_intq () =
  let q = Sched.Intq.create 6 in
  check_true "empty" (Sched.Intq.is_empty q);
  check_int "head of empty" (-1) (Sched.Intq.head q);
  Sched.Intq.push q 3;
  Sched.Intq.push q 1;
  Sched.Intq.push q 4;
  Sched.Intq.push q 1;
  (* duplicate: no-op *)
  check_int "length" 3 (Sched.Intq.length q);
  check_true "fifo" (Sched.Intq.to_list q = [ 3; 1; 4 ]);
  (* cursor walk agrees with to_list *)
  let rec walk i acc =
    if i < 0 then List.rev acc else walk (Sched.Intq.next q i) (i :: acc)
  in
  check_true "cursor walk" (walk (Sched.Intq.head q) [] = [ 3; 1; 4 ]);
  Sched.Intq.remove q 1;
  check_true "inner removal" (Sched.Intq.to_list q = [ 3; 4 ]);
  Sched.Intq.remove q 3;
  check_int "head after head removal" 4 (Sched.Intq.head q);
  Sched.Intq.remove q 5;
  (* absent: no-op *)
  Sched.Intq.push q 3;
  check_true "reinsert goes to tail" (Sched.Intq.to_list q = [ 4; 3 ]);
  check_true "mem" (Sched.Intq.mem q 4 && not (Sched.Intq.mem q 1));
  Sched.Intq.remove q 4;
  Sched.Intq.remove q 3;
  check_true "drained" (Sched.Intq.is_empty q);
  check_int "peek none" (-1) (Sched.Intq.head q)

let test_intq_random () =
  (* differential against a list model *)
  let st = rng 31 in
  let q = Sched.Intq.create 10 in
  let model = ref [] in
  for _ = 1 to 2000 do
    let x = Random.State.int st 10 in
    if Random.State.bool st then begin
      Sched.Intq.push q x;
      if not (List.mem x !model) then model := !model @ [ x ]
    end
    else begin
      Sched.Intq.remove q x;
      model := List.filter (fun y -> y <> x) !model
    end;
    check_true "model agrees" (Sched.Intq.to_list q = !model)
  done

let suite =
  [
    Alcotest.test_case "SGT = SGT-ref exhaustive to size 6" `Slow
      test_exhaustive_small;
    Alcotest.test_case "fixpoint sets agree" `Quick test_fixpoint_sets_agree;
    Alcotest.test_case "repeated-access regression" `Quick
      test_repeated_access_regression;
    Alcotest.test_case "kernel: an abort frees a completed transaction"
      `Quick test_abort_frees_completed;
    Alcotest.test_case "kernel: one edge per chain member, bypassed on abort"
      `Quick test_chain_edges;
    Alcotest.test_case "kernel: rows that repeat entries" `Quick
      test_repeat_entry_rows;
    Alcotest.test_case "kernel: the refusal cache clears through witnesses"
      `Quick test_refusal_cache;
    Alcotest.test_case "kernel engines = SGT-ref on an abort-heavy corpus"
      `Quick test_abort_heavy_corpus;
    Alcotest.test_case "refusal searches pinned" `Quick test_refusal_count;
    Alcotest.test_case "clear decisions allocate nothing" `Quick
      test_clear_decisions_allocate_nothing;
    Alcotest.test_case "cached delays = fresh refusals on replay" `Quick
      test_replay_differential;
    Alcotest.test_case "kernel = full-scan prune model" `Quick
      test_cgraph_model;
    Alcotest.test_case "DES vs driver corpus" `Quick test_des_driver_corpus;
    Alcotest.test_case "DES vs driver sweep" `Slow test_des_driver_sweep;
    Alcotest.test_case "intq basics" `Quick test_intq;
    Alcotest.test_case "intq vs list model" `Quick test_intq_random;
  ]
  @ qsuite [ prop_random_large ]
