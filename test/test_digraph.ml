(* Tests for the directed-graph substrate. *)

open Util

let mk edges n =
  let g = Digraph.create n in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
  g

let test_basic () =
  let g = mk [ (0, 1); (1, 2) ] 3 in
  check_true "has 0->1" (Digraph.has_edge g 0 1);
  check_false "no 1->0" (Digraph.has_edge g 1 0);
  check_int "n edges" 2 (Digraph.n_edges g);
  Alcotest.(check (list int)) "succ 0" [ 1 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "pred 2" [ 1 ] (Digraph.pred g 2);
  Digraph.add_edge g 0 1;
  check_int "idempotent add" 2 (Digraph.n_edges g);
  Digraph.remove_edge g 0 1;
  check_false "removed" (Digraph.has_edge g 0 1)

let test_cycles () =
  check_false "dag" (Digraph.has_cycle (mk [ (0, 1); (1, 2); (0, 2) ] 3));
  check_true "triangle" (Digraph.has_cycle (mk [ (0, 1); (1, 2); (2, 0) ] 3));
  check_true "self loop" (Digraph.has_cycle (mk [ (1, 1) ] 2));
  check_false "empty" (Digraph.has_cycle (Digraph.create 5));
  check_true "two-cycle deep"
    (Digraph.has_cycle (mk [ (0, 1); (1, 2); (2, 3); (3, 1) ] 4))

let test_topo () =
  (match Digraph.topological_sort (mk [ (2, 1); (1, 0) ] 3) with
  | Some order -> Alcotest.(check (array int)) "order" [| 2; 1; 0 |] order
  | None -> Alcotest.fail "expected a topological order");
  check_true "cyclic has none"
    (Digraph.topological_sort (mk [ (0, 1); (1, 0) ] 2) = None)

let test_find_cycle () =
  (match Digraph.find_cycle (mk [ (0, 1); (1, 2); (2, 0) ] 3) with
  | Some cyc -> check_int "cycle length" 3 (List.length cyc)
  | None -> Alcotest.fail "expected a cycle");
  check_true "acyclic none" (Digraph.find_cycle (mk [ (0, 1) ] 2) = None)

let test_reachable () =
  let g = mk [ (0, 1); (1, 2); (3, 0) ] 4 in
  let r = Digraph.reachable g 0 in
  Alcotest.(check (array bool)) "from 0" [| true; true; true; false |] r

let test_components () =
  let g = mk [ (0, 1); (2, 3) ] 5 in
  let c = Digraph.undirected_components g in
  check_true "0-1 joined" (c.(0) = c.(1));
  check_true "2-3 joined" (c.(2) = c.(3));
  check_true "4 alone" (c.(4) <> c.(0) && c.(4) <> c.(2))

(* Brute-force cycle check for cross-validation: try all vertices as
   start, walk all simple paths. Exponential but fine on tiny graphs. *)
let brute_has_cycle g =
  let n = Digraph.n_vertices g in
  let rec walk visited u =
    List.exists
      (fun v -> List.mem v visited || walk (v :: visited) v)
      (Digraph.succ g u)
  in
  let rec any u = u < n && (walk [ u ] u || any (u + 1)) in
  any 0

let random_graph_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    list_size (int_range 0 10) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun edges -> return (n, edges))

let prop_cycle_matches_brute =
  QCheck.Test.make ~name:"has_cycle matches brute force" ~count:300
    (QCheck.make
       ~print:(fun (n, es) ->
         Printf.sprintf "n=%d edges=%s" n
           (String.concat ";"
              (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)))
       random_graph_gen)
    (fun (n, edges) ->
      let g = mk edges n in
      Digraph.has_cycle g = brute_has_cycle g)

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topological sort respects all edges" ~count:300
    (QCheck.make random_graph_gen)
    (fun (n, edges) ->
      let g = mk edges n in
      match Digraph.topological_sort g with
      | None -> Digraph.has_cycle g
      | Some order ->
        let pos = Array.make n 0 in
        Array.iteri (fun i u -> pos.(u) <- i) order;
        (not (Digraph.has_cycle g))
        && List.for_all (fun (u, v) -> pos.(u) < pos.(v)) (Digraph.edges g))

let prop_find_cycle_is_cycle =
  QCheck.Test.make ~name:"find_cycle returns a real cycle" ~count:300
    (QCheck.make random_graph_gen)
    (fun (n, edges) ->
      let g = mk edges n in
      match Digraph.find_cycle g with
      | None -> not (Digraph.has_cycle g)
      | Some [] -> false
      | Some (first :: _ as cyc) ->
        let rec ok = function
          | [ last ] -> Digraph.has_edge g last first
          | u :: (v :: _ as rest) -> Digraph.has_edge g u v && ok rest
          | [] -> false
        in
        ok cyc)

let prop_closure_sound =
  QCheck.Test.make ~name:"transitive closure = reachability" ~count:200
    (QCheck.make random_graph_gen)
    (fun (n, edges) ->
      let g = mk edges n in
      let c = Digraph.transitive_closure g in
      let ok = ref true in
      for u = 0 to n - 1 do
        let r = Digraph.reachable g u in
        for v = 0 to n - 1 do
          let direct = Digraph.has_edge c u v in
          let expected =
            (* reachable by non-empty path *)
            List.exists (fun w -> Digraph.reachable g w |> fun rw -> rw.(v))
              (Digraph.succ g u)
          in
          ignore r;
          if direct <> expected then ok := false
        done
      done;
      !ok)

(* ---------- incremental acyclic graphs ---------- *)

module A = Digraph.Acyclic

(* Chain flags for lists read in full: the three classes [pick] draws
   from, none a chain. *)
let no_chain = [| false; false; false |]

(* The edge [u -> v] through the list-form insertion: [Ok ()], or
   [Error] with the refusal's witness [v; ...; u]. *)
let insert_edge g u v =
  if A.add_edges_acyclic g ~sources:[ u ] ~targets:[ v ] then Ok ()
  else Error (A.last_path g)

let test_acyclic_basic () =
  let g = A.create 3 in
  check_true "add 0->1" (insert_edge g 0 1 = Ok ());
  check_true "add 1->2" (insert_edge g 1 2 = Ok ());
  check_true "has 0->1" (A.has_edge g 0 1);
  check_int "two edges" 2 (A.n_edges g);
  check_true "idempotent" (insert_edge g 0 1 = Ok ());
  check_int "still two edges" 2 (A.n_edges g);
  (match insert_edge g 2 0 with
  | Error [| 0; 1; 2 |] -> ()
  | Error w ->
    Alcotest.failf "unexpected witness [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int w)))
  | Ok () -> Alcotest.fail "cycle accepted");
  check_int "rejected edge not added" 2 (A.n_edges g);
  check_true "self-loop refused" (insert_edge g 1 1 = Error [| 1 |]);
  check_true "cycle query" (A.reaches_any g ~sources:[ 0 ] ~targets:[ 2 ]);
  check_false "harmless edge" (A.reaches_any g ~sources:[ 2 ] ~targets:[ 0 ]);
  check_int "query did not mutate" 2 (A.n_edges g)

let test_acyclic_reorder () =
  (* insertions against the initial identity order force reorderings *)
  let g = A.create 4 in
  check_true "3->2" (insert_edge g 3 2 = Ok ());
  check_true "2->1" (insert_edge g 2 1 = Ok ());
  check_true "1->0" (insert_edge g 1 0 = Ok ());
  let order = A.topological_order g in
  Alcotest.(check (array int)) "reversed order" [| 3; 2; 1; 0 |] order;
  check_true "0->3 closes cycle" (Result.is_error (insert_edge g 0 3))

let test_acyclic_removal () =
  let g = A.create 4 in
  List.iter
    (fun (u, v) -> check_true "acyclic add" (insert_edge g u v = Ok ()))
    [ (0, 1); (1, 2); (2, 3) ];
  check_true "3->0 blocked by the chain"
    (Result.is_error (insert_edge g 3 0));
  A.remove_vertex g 1;
  check_int "edges after removal" 1 (A.n_edges g);
  Alcotest.(check (list int)) "1 isolated succ" [] (A.succ g 1);
  Alcotest.(check (list int)) "1 isolated pred" [] (A.pred g 1);
  check_true "3->0 now fine" (insert_edge g 3 0 = Ok ());
  A.remove_edge g 2 3;
  check_false "edge removed" (A.has_edge g 2 3)

let test_acyclic_batch_query () =
  let g = A.create 4 in
  List.iter
    (fun (u, v) -> ignore (insert_edge g u v))
    [ (0, 1); (1, 2) ];
  (* adding {0 -> 3, 2 -> 3} is fine; {0 -> 1's tail...}: adding
     {3 -> 0} batched with anything is fine too since 3 unreachable *)
  check_false "batch ok" (A.reaches_any g ~sources:[ 3 ] ~targets:[ 0; 2 ]);
  check_true "batch cycle" (A.reaches_any g ~sources:[ 0 ] ~targets:[ 3; 2 ]);
  check_true "self in batch" (A.reaches_any g ~sources:[ 0 ] ~targets:[ 0 ]);
  (* the same queries with the sources spread over several lists *)
  let lists = [| [ 0 ]; [ 3 ]; [ 2 ] |] and chain = no_chain in
  check_false "union ok"
    (A.closes_cycle_any_of g ~excluding:(-1) ~lists ~base:0 ~pick:[| 0; 2 |]
       ~chain ~target:3);
  check_true "union cycle"
    (A.closes_cycle_any_of g ~excluding:(-1) ~lists ~base:0 ~pick:[| 1; 2 |]
       ~chain ~target:0);
  check_false "excluded source"
    (A.closes_cycle_any_of g ~excluding:2 ~lists ~base:1 ~pick:[| 1 |]
       ~chain ~target:0);
  (* the same graph through the marking searches and [reaches_any] *)
  let marks () = List.filter (A.marked g) [ 0; 1; 2; 3 ] in
  A.mark_reachable g 1;
  Alcotest.(check (list int)) "forward mark" [ 1; 2 ] (marks ());
  A.mark_reaching_any_of g ~excluding:(-1) ~lists ~base:0 ~pick:[| 2 |]
    ~chain;
  Alcotest.(check (list int)) "backward mark" [ 0; 1; 2 ] (marks ());
  A.mark_reaching_any_of g ~excluding:2 ~lists ~base:0 ~pick:[| 0; 2 |]
    ~chain;
  Alcotest.(check (list int)) "excluded source" [ 0 ] (marks ());
  A.mark_reaching_any_of g ~excluding:0 ~lists ~base:0 ~pick:[| 0; 2 |]
    ~chain;
  Alcotest.(check (list int)) "excluded vertex reaching a source"
    [ 0; 1; 2 ] (marks ());
  A.mark_reaching_any_of g ~excluding:(-1) ~lists ~base:0 ~pick:[||] ~chain;
  Alcotest.(check (list int)) "no sources" [] (marks ());
  check_true "reaches a target"
    (A.reaches_any g ~sources:[ 3; 0 ] ~targets:[ 2 ]);
  check_false "reaches no target"
    (A.reaches_any g ~sources:[ 2; 3 ] ~targets:[ 0; 1 ]);
  check_true "a source that is a target"
    (A.reaches_any g ~sources:[ 3 ] ~targets:[ 0; 3 ]);
  check_false "no sources" (A.reaches_any g ~sources:[] ~targets:[ 2 ]);
  check_false "no targets" (A.reaches_any g ~sources:[ 0 ] ~targets:[]);
  check_int "searches did not mutate" 2 (A.n_edges g)

let test_acyclic_batch_insert () =
  let g = A.create 5 in
  (* against the identity order: every target sits before every source *)
  check_true "batch accepted"
    (A.add_edges_acyclic g ~sources:[ 3; 4 ] ~targets:[ 0; 1 ]);
  check_int "four edges" 4 (A.n_edges g);
  let pos = Array.make 5 0 in
  Array.iteri (fun i u -> pos.(u) <- i) (A.topological_order g);
  check_true "order respects the batch"
    (List.for_all (fun (u, v) -> pos.(u) < pos.(v)) (A.edges g));
  (* out-edges newest first, in the order the targets were listed *)
  let succs u =
    let acc = ref [] in
    A.iter_succ g u (fun v -> acc := v :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "insertion order" [ 1; 0 ] (succs 3);
  let order = A.topological_order g in
  check_false "a batch closing 0 -> ... -> 3"
    (A.add_edges_acyclic g ~sources:[ 2; 0 ] ~targets:[ 2; 3 ]);
  Alcotest.(check (array int)) "self-loop witness first" [| 2 |]
    (A.last_path g);
  check_false "a cycle through an old edge"
    (A.add_edges_acyclic g ~sources:[ 0 ] ~targets:[ 4 ]);
  Alcotest.(check (array int)) "witness from the target" [| 4; 0 |]
    (A.last_path g);
  check_int "refused batches add nothing" 4 (A.n_edges g);
  Alcotest.(check (array int)) "nor move the order" order
    (A.topological_order g);
  let lists = [| [ 2; 0 ]; [ 1 ] |] in
  check_true "in-place sources, the target excluded"
    (A.add_edges_acyclic_of g ~excluding:2 ~lists ~base:0 ~pick:[| 0; 1 |]
       ~chain:[| false; false |] ~target:2);
  Alcotest.(check (list int)) "in-edges of 2" [ 0; 1 ] (A.pred g 2);
  check_false "in-place self-loop"
    (A.add_edges_acyclic_of g ~excluding:(-1) ~lists ~base:0 ~pick:[| 0 |]
       ~chain:[| false; false |] ~target:2);
  Alcotest.(check (array int)) "in-place self-loop witness" [| 2 |]
    (A.last_path g);
  (* an empty side: [true] at once, nothing changed, and no witness
     left from the refusal just before *)
  let edges = A.edges g and order = A.topological_order g in
  List.iter
    (fun (sources, targets) ->
      check_false "a refusal first"
        (A.add_edges_acyclic g ~sources:[ 2 ] ~targets:[ 2 ]);
      check_true "an empty side" (A.add_edges_acyclic g ~sources ~targets);
      Alcotest.(check (array int)) "no witness" [||] (A.last_path g);
      Alcotest.(check (list (pair int int))) "edges unchanged" edges
        (A.edges g);
      Alcotest.(check (array int)) "order unchanged" order
        (A.topological_order g);
      check_int "six edges" 6 (A.n_edges g))
    [ ([], [ 0 ]); ([ 0 ], []); ([], []) ];
  check_true "an empty in-place batch"
    (A.add_edges_acyclic_of g ~excluding:(-1) ~lists ~base:0 ~pick:[||]
       ~chain:[||] ~target:0);
  check_int "still six edges" 6 (A.n_edges g)

(* [bypass g u m keep] gives [u] an edge to each kept successor of [m]
   it lacks, appended in [m]'s order, and needs the edge [u -> m]. *)
let test_acyclic_bypass () =
  let g = A.create 5 in
  List.iter
    (fun (u, v) -> ignore (insert_edge g u v))
    [ (0, 1); (0, 3); (1, 2); (1, 3); (1, 4) ];
  A.bypass g 0 1 (fun v -> v <> 4);
  Alcotest.(check (list int)) "kept successors, the present one once"
    [ 1; 2; 3 ] (A.succ g 0);
  let succs = ref [] in
  A.iter_succ g 0 (fun v -> succs := v :: !succs);
  Alcotest.(check (list int)) "appended after the old edges" [ 1; 3; 2 ]
    !succs;
  check_int "one edge added" 6 (A.n_edges g);
  check_true "no edge to the bypassed vertex"
    (match A.bypass g 2 1 (fun _ -> true) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Differential property: a random op sequence on the incremental
   structure mirrors exactly onto the plain digraph — same accepted edge
   set, rejections exactly when the plain graph would turn cyclic, valid
   witnesses, and a maintained order that is topological throughout. *)
let acyclic_ops_gen =
  QCheck.Gen.(
    int_range 2 10 >>= fun n ->
    list_size (int_range 0 60)
      (oneof
         [
           map2 (fun u v -> `Add (u, v)) (int_range 0 (n - 1)) (int_range 0 (n - 1));
           map2 (fun u v -> `Del (u, v)) (int_range 0 (n - 1)) (int_range 0 (n - 1));
           map (fun u -> `DelV u) (int_range 0 (n - 1));
         ])
    >>= fun ops -> return (n, ops))

let prop_acyclic_matches_plain =
  QCheck.Test.make ~name:"Acyclic mirrors plain digraph + has_cycle" ~count:400
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d ops=%s" n
           (String.concat ";"
              (List.map
                 (function
                   | `Add (u, v) -> Printf.sprintf "+%d->%d" u v
                   | `Del (u, v) -> Printf.sprintf "-%d->%d" u v
                   | `DelV u -> Printf.sprintf "-v%d" u)
                 ops)))
       acyclic_ops_gen)
    (fun (n, ops) ->
      let a = A.create n in
      let p = Digraph.create n in
      let order_ok () =
        let order = A.topological_order a in
        let pos = Array.make n 0 in
        Array.iteri (fun i u -> pos.(u) <- i) order;
        List.for_all (fun (u, v) -> pos.(u) < pos.(v)) (A.edges a)
      in
      let iter_succ_ok () =
        List.for_all
          (fun u ->
            let seen = ref [] in
            A.iter_succ a u (fun v -> seen := v :: !seen);
            List.sort compare !seen = A.succ a u
            && A.pred a u = Digraph.pred p u
            && A.in_degree a u = List.length (Digraph.pred p u))
          (List.init n Fun.id)
      in
      let witness_ok u v path =
        let len = Array.length path in
        len > 0
        && path.(0) = v
        && path.(len - 1) = u
        && (len = 1 (* self-loop witness: u = v *)
           || List.for_all
                (fun i -> Digraph.has_edge p path.(i - 1) path.(i))
                (List.init (len - 1) succ))
      in
      List.for_all
        (fun op ->
          (match op with
          | `Add (u, v) -> (
            let probe = Digraph.copy p in
            Digraph.add_edge probe u v;
            let query = A.reaches_any a ~sources:[ v ] ~targets:[ u ] in
            match insert_edge a u v with
            | Ok () ->
              Digraph.add_edge p u v;
              (not query) && not (Digraph.has_cycle p)
            | Error w ->
              query && Digraph.has_cycle probe && witness_ok u v w)
          | `Del (u, v) ->
            A.remove_edge a u v;
            Digraph.remove_edge p u v;
            true
          | `DelV u ->
            A.remove_vertex a u;
            List.iter (fun v -> Digraph.remove_edge p u v) (Digraph.succ p u);
            List.iter (fun w -> Digraph.remove_edge p w u) (Digraph.pred p u);
            true)
          && A.edges a = Digraph.edges p
          && A.n_edges a = Digraph.n_edges p
          && order_ok () && iter_succ_ok ())
        ops)

(* The marking searches and [reaches_any] against [Digraph.reachable],
   and the vertices each marking search reports against its marks, on
   random acyclic graphs: sources spread over lists read from a
   random base (possibly none at all), a random excluded vertex, and
   source and target lists that may be empty or overlap. Before the
   queries, a random run of edge removals, vertex removals and re-adds
   reshapes the graph, so the searches read adjacency arrays that have
   had slots moved by removals and have grown past their first
   capacity. *)
type marks_case = {
  n : int;
  edges : (int * int) list;
  ops : [ `Add of int * int | `Del of int * int | `DelV of int ] list;
  lists : int list array;
  base : int;
  pick : int array;
  sources : int list;
  targets : int list;
  excluding : int;
}

let marks_gen =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    let v = int_range 0 (n - 1) in
    let vs = list_size (int_range 0 4) v in
    list_size (int_range 0 30) (pair v v) >>= fun edges ->
    list_size (int_range 0 12)
      (oneof
         [
           map2 (fun u w -> `Add (u, w)) v v;
           map2 (fun u w -> `Del (u, w)) v v;
           map (fun u -> `DelV u) v;
         ])
    >>= fun ops ->
    array_size (return 4) vs >>= fun lists ->
    int_range 0 1 >>= fun base ->
    array_size (int_range 0 3) (int_range 0 2) >>= fun pick ->
    pair vs vs >>= fun (sources, targets) ->
    int_range (-1) (n - 1) >>= fun excluding ->
    return
      { n; edges; ops; lists; base; pick; sources; targets; excluding })

let print_marks_case c =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf
    "n=%d edges=%s ops=%s lists=%s base=%d pick=%s sources=%s targets=%s \
     excluding=%d"
    c.n
    (String.concat ";"
       (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) c.edges))
    (String.concat ";"
       (List.map
          (function
            | `Add (u, v) -> Printf.sprintf "+%d->%d" u v
            | `Del (u, v) -> Printf.sprintf "-%d->%d" u v
            | `DelV u -> Printf.sprintf "-v%d" u)
          c.ops))
    (String.concat "|" (Array.to_list (Array.map ints c.lists)))
    c.base
    (ints (Array.to_list c.pick))
    (ints c.sources) (ints c.targets) c.excluding

let marks_arb = QCheck.make ~print:print_marks_case marks_gen

(* The case's graph, built on the incremental structure and mirrored on
   the plain digraph: the accepted edges, then the removals and
   re-adds. *)
let build_marks c =
  let a = A.create c.n and p = Digraph.create c.n in
  let add (u, v) =
    if insert_edge a u v = Ok () then Digraph.add_edge p u v
  in
  List.iter add c.edges;
  List.iter
    (function
      | `Add e -> add e
      | `Del (u, v) ->
        A.remove_edge a u v;
        Digraph.remove_edge p u v
      | `DelV u ->
        A.remove_vertex a u;
        List.iter (fun v -> Digraph.remove_edge p u v) (Digraph.succ p u);
        List.iter (fun w -> Digraph.remove_edge p w u) (Digraph.pred p u))
    c.ops;
  (a, p)

(* The sources [mark_reaching_any_of] and [closes_cycle_any_of] read:
   the picked lists, less the excluded vertex. *)
let picked_sources c =
  List.concat_map (fun k -> c.lists.(c.base + k)) (Array.to_list c.pick)
  |> List.filter (fun s -> s <> c.excluding)

let prop_marks_match_reachable =
  QCheck.Test.make ~name:"marks and reaches_any = reachable" ~count:400
    marks_arb
    (fun c ->
      let n = c.n in
      let a, p = build_marks c in
      let reach = Array.init n (Digraph.reachable p) in
      let all f = List.for_all f (List.init n Fun.id) in
      (* the reported vertices are the marked ones, each once *)
      let reported () =
        List.sort compare (List.init (A.n_marked a) (A.nth_marked a))
        = List.filter (A.marked a) (List.init n Fun.id)
      in
      let forward =
        all (fun u ->
            A.mark_reachable a u;
            all (fun v -> A.marked a v = reach.(u).(v)) && reported ())
      in
      let srcs = picked_sources c in
      A.mark_reaching_any_of a ~excluding:c.excluding ~lists:c.lists
        ~base:c.base ~pick:c.pick ~chain:no_chain;
      let backward =
        all (fun v -> A.marked a v = List.exists (fun s -> reach.(v).(s)) srcs)
        && reported ()
      in
      forward && backward
      && A.reaches_any a ~sources:c.sources ~targets:c.targets
         = List.exists
             (fun s -> List.exists (fun t -> reach.(s).(t)) c.targets)
             c.sources)

(* [last_path] after every [true] answer of the searches, on the
   same random graphs: each consecutive pair is an edge, the path starts
   where the search did and ends at a wanted vertex, and a source equal
   to the target answers [[target]]. The queries run back to back, so a
   path left over from an earlier search would show. *)
let prop_last_path =
  QCheck.Test.make ~name:"last_path is a path to a wanted vertex" ~count:400
    marks_arb
    (fun c ->
      let n = c.n and excluding = c.excluding in
      let sources = c.sources and targets = c.targets in
      let a, p = build_marks c in
      let reach = Array.init n (Digraph.reachable p) in
      let edges_ok path =
        let ok = ref true in
        for i = 1 to Array.length path - 1 do
          ok := !ok && A.has_edge a path.(i - 1) path.(i)
        done;
        !ok
      in
      let last path = path.(Array.length path - 1) in
      (* [answer] from [start] to one of [wanted]: agrees with
         reachability, and a [true] leaves a witness *)
      let witnessed ~start ~wanted answer =
        answer = List.exists (fun w -> reach.(start).(w)) wanted
        && ((not answer)
           ||
           let path = A.last_path a in
           edges_ok path
           && path.(0) = start
           && List.mem (last path) wanted
           && ((not (List.mem start wanted)) || path = [| start |]))
      in
      let srcs = picked_sources c in
      let plain = List.filter (fun s -> s <> excluding) sources in
      List.for_all
        (fun t ->
          witnessed ~start:t ~wanted:plain
            (A.reaches_any a ~sources:[ t ] ~targets:plain)
          && witnessed ~start:t ~wanted:srcs
               (A.closes_cycle_any_of a ~excluding ~lists:c.lists
                  ~base:c.base ~pick:c.pick ~chain:no_chain ~target:t))
        (List.init n Fun.id)
      && List.for_all
           (fun s ->
             (* one source at a time, so the path's start is known *)
             witnessed ~start:s ~wanted:targets
               (A.reaches_any a ~sources:[ s ] ~targets))
           sources
      &&
      (* all sources at once: the path starts at one of them *)
      ((not (A.reaches_any a ~sources ~targets))
      ||
      let path = A.last_path a in
      edges_ok path
      && List.mem path.(0) sources
      && List.mem (last path) targets))

(* Batched insertion against a plain mirror. The mirror keeps each
   vertex's out-edges newest first, in the order the batch entry points
   promise to insert them: source by source, each source's in target
   order. Random runs of batches through both entry points, edge
   removals and vertex removals (a removed vertex gains edges again in
   later batches). [add_edges_acyclic_of] gets random chain flags, and
   each flagged list is made a chain first (see [chain_up]): the mirror
   links only the head of a flagged list, its first member other than
   the excluded vertex, while the cycle check and its witness answer
   for every listed source. *)
type batch =
  | Ins of int list * int list
  | Ins_of of {
      lists : int list array;
      base : int;
      pick : int array;
      chain : bool array;
      excluding : int;
      target : int;
    }
  | Del of int * int
  | Del_v of int

let batch_gen n =
  QCheck.Gen.(
    let v = int_range 0 (n - 1) in
    let vs = list_size (int_range 0 4) v in
    frequency
      [
        (4, map2 (fun s t -> Ins (s, t)) vs vs);
        ( 4,
          array_size (return 4) vs >>= fun lists ->
          int_range 0 1 >>= fun base ->
          array_size (int_range 0 3) (int_range 0 2) >>= fun pick ->
          array_size (return 3) bool >>= fun chain ->
          int_range (-1) (n - 1) >>= fun excluding ->
          v >>= fun target ->
          return (Ins_of { lists; base; pick; chain; excluding; target }) );
        (1, map2 (fun u w -> Del (u, w)) v v);
        (1, map (fun u -> Del_v u) v);
      ])

let print_batch =
  let ints l = String.concat ";" (List.map string_of_int l) in
  function
  | Ins (s, t) -> Printf.sprintf "[%s]x[%s]" (ints s) (ints t)
  | Ins_of { lists; base; pick; chain; excluding; target } ->
    Printf.sprintf "of(%s|base=%d|pick=%s|chain=%s|ex=%d)x%d"
      (String.concat "," (Array.to_list (Array.map ints lists)))
      base
      (ints (Array.to_list pick))
      (String.concat ""
         (Array.to_list (Array.map (fun b -> if b then "1" else "0") chain)))
      excluding target
  | Del (u, v) -> Printf.sprintf "-%d->%d" u v
  | Del_v u -> Printf.sprintf "-v%d" u

(* The sources and targets of a batch, in insertion order. *)
let batch_ends = function
  | Ins (sources, targets) -> (sources, targets)
  | Ins_of { lists; base; pick; excluding; target; _ } ->
    ( List.concat_map (fun k -> lists.(base + k)) (Array.to_list pick)
      |> List.filter (fun s -> s <> excluding),
      [ target ] )
  | Del _ | Del_v _ -> ([], [])

(* The sources a batch links, in insertion order: a flagged list gives
   only its head. *)
let batch_links = function
  | Ins_of { lists; base; pick; chain; excluding; _ } ->
    List.concat_map
      (fun k ->
        let members = List.filter (fun s -> s <> excluding) lists.(base + k) in
        if chain.(k) then List.filteri (fun i _ -> i = 0) members else members)
      (Array.to_list pick)
  | op -> fst (batch_ends op)

let mirror_plain out =
  let p = Digraph.create (Array.length out) in
  Array.iteri (fun u vs -> List.iter (Digraph.add_edge p u) vs) out;
  p

let mirror_edges out =
  Array.to_list (Array.mapi (fun u vs -> List.map (fun v -> (u, v)) vs) out)
  |> List.concat |> List.sort compare

(* The reference search behind every witness: unbounded, blind to the
   maintained order, out-edges newest first, one seen set shared by the
   starts in turn. The path runs from a start to the first wanted vertex
   it meets. *)
let ref_path out ~starts ~wanted =
  let seen = Array.make (Array.length out) false in
  let rec visit path w =
    if seen.(w) then None
    else begin
      seen.(w) <- true;
      if List.mem w wanted then Some (Array.of_list (List.rev (w :: path)))
      else List.find_map (visit (w :: path)) out.(w)
    end
  in
  List.find_map (visit []) starts

(* A refused batch's witness: a target that is a source, the first one
   in target order, else the search from the targets. *)
let ref_refusal out (sources, targets) =
  match List.find_opt (fun t -> List.mem t sources) targets with
  | Some t -> Some [| t |]
  | None -> ref_path out ~starts:targets ~wanted:sources

(* Give each flagged list the chain precondition: an edge from every
   member to its next newer one, inserted and mirrored in [out]. A list
   whose edges would close a cycle cannot be a chain, so its flag is
   dropped. Returns the flags kept. *)
let chain_up a out ~lists ~base ~pick ~chain =
  let kept = Array.copy chain in
  let rec link = function
    | newer :: (older :: _ as rest) ->
      (newer = older
      ||
      match insert_edge a older newer with
      | Ok () ->
        if not (List.mem newer out.(older)) then
          out.(older) <- newer :: out.(older);
        true
      | Error _ -> false)
      && link rest
    | _ -> true
  in
  Array.iter
    (fun k -> if kept.(k) && not (link lists.(base + k)) then kept.(k) <- false)
    pick;
  kept

(* Insert one batch into the incremental graph and the mirror: true
   when its properties hold. *)
let insert_batch a out op =
  let sources, targets = batch_ends op in
  let probe = mirror_plain out in
  List.iter
    (fun s -> List.iter (fun t -> Digraph.add_edge probe s t) targets)
    sources;
  let fits = not (Digraph.has_cycle probe) in
  let edges = A.edges a and order = A.topological_order a in
  let accepted =
    match op with
    | Ins (sources, targets) -> A.add_edges_acyclic a ~sources ~targets
    | Ins_of { lists; base; pick; chain; excluding; target } ->
      A.add_edges_acyclic_of a ~excluding ~lists ~base ~pick ~chain ~target
    | Del _ | Del_v _ -> assert false
  in
  accepted = fits
  &&
  if accepted then begin
    List.iter
      (fun s ->
        List.iter
          (fun t -> if not (List.mem t out.(s)) then out.(s) <- t :: out.(s))
          targets)
      (batch_links op);
    true
  end
  else
    A.edges a = edges
    && A.topological_order a = order
    && Some (A.last_path a) = ref_refusal out (sources, targets)

(* Apply one op to the incremental graph and the mirror: true when its
   properties hold. A batch's flagged lists are made chains first. *)
let apply_batch a out op =
  match op with
  | Del (u, v) ->
    A.remove_edge a u v;
    out.(u) <- List.filter (( <> ) v) out.(u);
    true
  | Del_v u ->
    A.remove_vertex a u;
    out.(u) <- [];
    Array.iteri (fun w vs -> out.(w) <- List.filter (( <> ) u) vs) out;
    true
  | Ins_of r when Array.exists Fun.id r.chain ->
    let chain =
      chain_up a out ~lists:r.lists ~base:r.base ~pick:r.pick ~chain:r.chain
    in
    insert_batch a out (Ins_of { r with chain })
  | Ins _ | Ins_of _ -> insert_batch a out op

let order_respects a =
  let pos = Array.make (A.n_vertices a) 0 in
  Array.iteri (fun i u -> pos.(u) <- i) (A.topological_order a);
  List.for_all (fun (u, v) -> pos.(u) < pos.(v)) (A.edges a)

let newest_first a out =
  List.for_all
    (fun u ->
      let acc = ref [] in
      A.iter_succ a u (fun v -> acc := v :: !acc);
      List.rev !acc = out.(u))
    (List.init (Array.length out) Fun.id)

let batch_run_gen =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    list_size (int_range 0 40) (batch_gen n) >>= fun ops -> return (n, ops))

let print_batch_run (n, ops) =
  Printf.sprintf "n=%d ops=%s" n (String.concat " " (List.map print_batch ops))

let prop_batch_matches_plain =
  QCheck.Test.make ~name:"batched insertion mirrors the plain digraph"
    ~count:400
    (QCheck.make ~print:print_batch_run batch_run_gen)
    (fun (n, ops) ->
      let a = A.create n and out = Array.make n [] in
      List.for_all
        (fun op ->
          apply_batch a out op
          && A.edges a = mirror_edges out
          && A.n_edges a = List.length (mirror_edges out)
          && order_respects a && newest_first a out)
        ops)

(* Duplicate edges are dropped at insertion, with no adjacency matrix to
   look them up in. Batches that repeat sources, repeat targets (within
   one list, or across the picked lists) and repeat edges already present
   (the same batch twice in a row): after each one, [n_edges], [succ],
   [pred] and [has_edge] match the mirror, and [succ] and [pred] hold no
   vertex twice. It fails on these mutants of the insertion: no stamp
   (every occurrence linked), stamping the wrong side (the target's
   out-neighbours) and no per-target stamp (one epoch for every target
   of [add_edges_acyclic], so a source linked to one target is skipped
   for the next). *)
let dup_batch_gen n =
  QCheck.Gen.(
    let v = int_range 0 (n - 1) in
    let twice l = map (fun b -> if b then l @ l else l) bool in
    let vs = list_size (int_range 0 3) v >>= twice in
    let op =
      frequency
        [
          (4, map2 (fun s t -> Ins (s, t)) vs vs);
          ( 4,
            array_size (return 3) vs >>= fun lists ->
            array_size (int_range 1 4) (int_range 0 1) >>= fun pick ->
            int_range (-1) (n - 1) >>= fun excluding ->
            v >>= fun target ->
            return
              (Ins_of
                 { lists; base = 1; pick; chain = [| false; false; false |];
                   excluding; target }) );
          (1, map2 (fun u w -> Del (u, w)) v v);
          (1, map (fun u -> Del_v u) v);
        ]
    in
    op >>= fun o -> map (fun again -> if again then [ o; o ] else [ o ]) bool)

let adjacency_matches a out =
  let n = Array.length out in
  let vertices = List.init n Fun.id in
  let preds v = List.filter (fun u -> List.mem v out.(u)) vertices in
  let dup_free sorted = List.sort_uniq compare sorted = sorted in
  A.n_edges a = Array.fold_left (fun k vs -> k + List.length vs) 0 out
  && List.for_all
       (fun u ->
         let succ = A.succ a u and pred = A.pred a u in
         dup_free succ && dup_free pred
         && succ = List.sort compare out.(u)
         && pred = preds u
         && List.for_all
              (fun v -> A.has_edge a u v = List.mem v out.(u))
              vertices)
       vertices

let prop_duplicates_dropped =
  QCheck.Test.make ~name:"repeated sources, targets and edges insert once"
    ~count:400
    (QCheck.make ~print:print_batch_run
       QCheck.Gen.(
         int_range 1 6 >>= fun n ->
         list_size (int_range 0 30) (dup_batch_gen n) >>= fun ops ->
         return (n, List.concat ops)))
    (fun (n, ops) ->
      let a = A.create n and out = Array.make n [] in
      List.for_all
        (fun op -> apply_batch a out op && adjacency_matches a out)
        ops)

(* Memory is linear in the vertices: a fresh graph on 2048 vertices holds
   a few int arrays of length 2048, where an n*n byte matrix would cost
   256 words per vertex on its own. *)
let test_acyclic_linear_memory () =
  let n = 2048 in
  let words = Obj.reachable_words (Obj.repr (A.create n)) in
  check_true
    (Printf.sprintf "%d words for %d vertices, under 64 per vertex" words n)
    (words < 64 * n)

(* Adjacency arrays across their size boundaries. Hub vertex 3 of a
   graph on 8 gains out-edges to 4.. and in-edges from 0..2, one each
   way per step, through 0 -> 1 -> 2 edges, a removal back to 1 and a
   re-add, then 3 (a one-slot array, then doubled to 2 and 4 slots);
   [remove_vertex] empties it and it is linked again. After every step
   the hub's [succ], [iter_succ] order (newest first), [pred],
   [in_degree] and the edge count match the expected ones, and so do
   the far ends' single edges. The first edge costs four words: a
   one-slot array at each end. *)
let test_acyclic_slot_boundaries () =
  let hub = 3 in
  let g = A.create 8 in
  let check step ~succs ~preds =
    let name what = Printf.sprintf "%s: %s" step what in
    let newest = ref [] in
    A.iter_succ g hub (fun v -> newest := v :: !newest);
    Alcotest.(check (list int)) (name "succ") (List.sort compare succs)
      (A.succ g hub);
    Alcotest.(check (list int)) (name "iter_succ, newest first") succs
      (List.rev !newest);
    Alcotest.(check (list int)) (name "pred") (List.sort compare preds)
      (A.pred g hub);
    check_int (name "in_degree") (List.length preds) (A.in_degree g hub);
    check_int (name "n_edges")
      (List.length succs + List.length preds)
      (A.n_edges g);
    let far what ends read =
      List.iter
        (fun v -> Alcotest.(check (list int)) (name what) [ hub ] (read g v))
        ends
    in
    far "pred far" succs A.pred;
    far "succ far" preds A.succ
  in
  let link u v = check_true "acyclic" (insert_edge g u v = Ok ()) in
  check "0 edges" ~succs:[] ~preds:[];
  let before = Obj.reachable_words (Obj.repr g) in
  link hub 4;
  check_int "a first edge: a one-slot array at each end" (before + 4)
    (Obj.reachable_words (Obj.repr g));
  link 0 hub;
  check "1 edge" ~succs:[ 4 ] ~preds:[ 0 ];
  link hub 5;
  link 1 hub;
  check "2 edges" ~succs:[ 5; 4 ] ~preds:[ 1; 0 ];
  A.remove_edge g hub 4;
  A.remove_edge g 0 hub;
  check "a removal" ~succs:[ 5 ] ~preds:[ 1 ];
  link hub 4;
  link 0 hub;
  check "a re-add" ~succs:[ 4; 5 ] ~preds:[ 0; 1 ];
  link hub 6;
  link 2 hub;
  check "3 edges" ~succs:[ 6; 4; 5 ] ~preds:[ 2; 0; 1 ];
  A.remove_vertex g hub;
  check "emptied" ~succs:[] ~preds:[];
  List.iter
    (fun v -> Alcotest.(check (list int)) "far end emptied" [] (A.pred g v))
    [ 4; 5; 6 ];
  link hub 7;
  link 2 hub;
  check "linked again" ~succs:[ 7 ] ~preds:[ 2 ];
  link hub 5;
  check "and grown" ~succs:[ 5; 7 ] ~preds:[ 2 ]

(* [last_path] does not depend on the maintained order: on graphs built
   by random batches, removals and re-adds, the witness of every
   [closes_cycle_any_of] and [reaches_any] is the reference search's.
   The lists get random chain flags, each flagged list made a chain
   first, and the reference search wants every member. *)
type witness_case = {
  wn : int;
  wops : batch list;
  wlists : int list array;
  wbase : int;
  wpick : int array;
  wchain : bool array;
  wexcluding : int;
  wsources : int list;
  wtargets : int list;
}

let witness_gen =
  QCheck.Gen.(
    int_range 1 10 >>= fun wn ->
    let v = int_range 0 (wn - 1) in
    let vs = list_size (int_range 0 4) v in
    list_size (int_range 0 40) (batch_gen wn) >>= fun wops ->
    array_size (return 4) vs >>= fun wlists ->
    int_range 0 1 >>= fun wbase ->
    array_size (int_range 0 3) (int_range 0 2) >>= fun wpick ->
    array_size (return 3) bool >>= fun wchain ->
    int_range (-1) (wn - 1) >>= fun wexcluding ->
    pair vs vs >>= fun (wsources, wtargets) ->
    return
      { wn; wops; wlists; wbase; wpick; wchain; wexcluding; wsources;
        wtargets })

let print_witness_case c =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "%s lists=%s base=%d pick=%s chain=%s excluding=%d \
                  sources=%s targets=%s"
    (print_batch_run (c.wn, c.wops))
    (String.concat "|" (Array.to_list (Array.map ints c.wlists)))
    c.wbase
    (ints (Array.to_list c.wpick))
    (String.concat ""
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") c.wchain)))
    c.wexcluding (ints c.wsources) (ints c.wtargets)

(* The case's graph and its mirror, the flagged lists made chains: the
   flags kept. *)
let build_witness c =
  let a = A.create c.wn and out = Array.make c.wn [] in
  List.iter (fun op -> ignore (apply_batch a out op)) c.wops;
  let chain =
    chain_up a out ~lists:c.wlists ~base:c.wbase ~pick:c.wpick ~chain:c.wchain
  in
  (a, out, chain)

let prop_witness_order_free =
  QCheck.Test.make ~name:"last_path is the order-free reference search"
    ~count:400
    (QCheck.make ~print:print_witness_case witness_gen)
    (fun c ->
      let a, out, chain = build_witness c in
      let found answer = if answer then Some (A.last_path a) else None in
      let wanted =
        List.concat_map (fun k -> c.wlists.(c.wbase + k))
          (Array.to_list c.wpick)
        |> List.filter (fun s -> s <> c.wexcluding)
      in
      List.for_all
        (fun t ->
          found
            (A.closes_cycle_any_of a ~excluding:c.wexcluding ~lists:c.wlists
               ~base:c.wbase ~pick:c.wpick ~chain ~target:t)
          = ref_path out ~starts:[ t ] ~wanted)
        (List.init c.wn Fun.id)
      && found (A.reaches_any a ~sources:c.wsources ~targets:c.wtargets)
         = ref_path out ~starts:c.wsources ~wanted:c.wtargets)

(* Each vertex's out-edges, newest first. *)
let out_arrays g =
  List.init (A.n_vertices g) (fun u ->
      let acc = ref [] in
      A.iter_succ g u (fun v -> acc := v :: !acc);
      List.rev !acc)

let same_graph a b =
  A.edges a = A.edges b
  && out_arrays a = out_arrays b
  && A.topological_order a = A.topological_order b

(* A head read equals a full read. Two copies of the same graph, its
   flagged lists made chains; target by target, each search runs on one
   copy with the kept flags and on the other with none. Answers and
   [last_path] agree, and so do the backward marks, both as [marked]
   and as reported. The full read's insertion is its search followed by
   the rotate-and-link step alone ([add_edges_vetted_of], linking heads
   as the head read's insertion does), so the two insertions differ only
   in their search, and must leave the same edges, out-array order and
   topological order; the next target runs on the graph they left. It
   fails on a mutant that skips the witness cut. *)
let prop_head_read =
  QCheck.Test.make ~name:"a head read equals a full read" ~count:400
    (QCheck.make ~print:print_witness_case witness_gen)
    (fun c ->
      let a, _, chain = build_witness c and f, _, _ = build_witness c in
      let excluding = c.wexcluding and lists = c.wlists in
      let base = c.wbase and pick = c.wpick in
      let search g chain t =
        A.closes_cycle_any_of g ~excluding ~lists ~base ~pick ~chain ~target:t
      in
      (* a search's witness is on [true], an insertion's on [false] *)
      let same_path () = A.last_path a = A.last_path f in
      let agree x y = x = y && ((not x) || same_path ()) in
      let agree_insert x y = x = y && (x || same_path ()) in
      let marks g = List.filter (A.marked g) (List.init c.wn Fun.id) in
      let reported g =
        List.sort compare (List.init (A.n_marked g) (A.nth_marked g))
      in
      List.for_all
        (fun t ->
          agree (search a chain t) (search f no_chain t)
          && begin
            A.mark_reaching_any_of a ~excluding ~lists ~base ~pick ~chain;
            A.mark_reaching_any_of f ~excluding ~lists ~base ~pick
              ~chain:no_chain;
            marks a = marks f && reported a = reported f
          end
          && agree_insert
               (A.add_edges_acyclic_of a ~excluding ~lists ~base ~pick ~chain
                  ~target:t)
               ((not (search f no_chain t))
               && A.add_edges_vetted_of f ~excluding ~lists ~base ~pick ~chain
                    ~target:t)
          && same_graph a f)
        (List.init c.wn Fun.id))

(* The rotate-and-link step alone equals the full insertion. Two copies
   of the same graph; per step, a clear [closes_cycle_any_of] on both,
   one op in between, then [add_edges_vetted_of] on one copy and
   [add_edges_acyclic_of] on the other: the answers, a refusal's
   [last_path], the edges, the out-array order and the topological
   order agree. In between: nothing, the same search again or a
   marking search, which stamps marks of its own (the record stands),
   or another target's search, [reaches_any], an edge insertion, an
   edge removal or a vertex removal (each voids it). A removal picks what the search reached,
   inside its window: an edge between two such vertices, or one of them
   other than the target, so that reusing the search would move the
   order. Lists are read in
   full, so every graph stays acyclic whatever the removals do to the
   chains. It fails on mutants that ignore the voiding: no epoch check,
   or an edge or vertex removal that keeps the record. *)
type between =
  | Nothing
  | Again
  | Query of int
  | Mark_fwd of int
  | Mark_bwd
  | Reach of int * int
  | Link of int * int
  | Unlink of int
  | Drop of int

let print_between = function
  | Nothing -> "nothing"
  | Again -> "again"
  | Query v -> Printf.sprintf "query %d" v
  | Mark_fwd v -> Printf.sprintf "mark %d" v
  | Mark_bwd -> "mark sources"
  | Reach (u, v) -> Printf.sprintf "reach %d %d" u v
  | Link (u, v) -> Printf.sprintf "+%d->%d" u v
  | Unlink i -> Printf.sprintf "unlink #%d" i
  | Drop i -> Printf.sprintf "drop #%d" i

let vetted_gen =
  QCheck.Gen.(
    witness_gen >>= fun c ->
    let v = int_range 0 (c.wn - 1) in
    let op =
      frequency
        [
          (1, return Nothing);
          (1, return Again);
          (1, map (fun u -> Query u) v);
          (1, map (fun u -> Mark_fwd u) v);
          (1, return Mark_bwd);
          (1, map2 (fun u w -> Reach (u, w)) v v);
          (2, map2 (fun u w -> Link (u, w)) v v);
          (3, map (fun i -> Unlink i) small_nat);
          (3, map (fun i -> Drop i) small_nat);
        ]
    in
    list_size (int_range 1 20) (pair v op) >>= fun steps -> return (c, steps))

let print_vetted (c, steps) =
  Printf.sprintf "%s steps=%s" (print_witness_case c)
    (String.concat ", "
       (List.map
          (fun (t, op) -> Printf.sprintf "%d after %s" t (print_between op))
          steps))

let prop_vetted_link =
  QCheck.Test.make ~name:"a search-free link equals the full insertion"
    ~count:1000
    (QCheck.make ~print:print_vetted vetted_gen)
    (fun (c, steps) ->
      let a, _, _ = build_witness c and f, _, _ = build_witness c in
      let excluding = c.wexcluding and lists = c.wlists in
      let base = c.wbase and pick = c.wpick and chain = no_chain in
      let search g t =
        A.closes_cycle_any_of g ~excluding ~lists ~base ~pick ~chain ~target:t
      in
      (* the vertices the search from [t] reaches inside its window:
         slots up to the highest source's *)
      let sources =
        List.concat_map (fun k -> lists.(base + k)) (Array.to_list pick)
        |> List.filter (fun s -> s <> excluding)
      in
      let reached g t =
        let pos = Array.make c.wn 0 in
        Array.iteri (fun i u -> pos.(u) <- i) (A.topological_order g);
        let ub = List.fold_left (fun m s -> max m pos.(s)) (-1) sources in
        let seen = Array.make c.wn false in
        let rec go u =
          if (not seen.(u)) && pos.(u) <= ub then begin
            seen.(u) <- true;
            A.iter_succ g u go
          end
        in
        go t;
        fun u -> seen.(u)
      in
      let between t g = function
        | Nothing -> ()
        | Again -> ignore (search g t)
        | Query u -> ignore (search g u)
        | Mark_fwd u -> A.mark_reachable g u
        | Mark_bwd -> A.mark_reaching_any_of g ~excluding ~lists ~base ~pick ~chain
        | Reach (u, w) -> ignore (A.reaches_any g ~sources:[ u ] ~targets:[ w ])
        | Link (u, w) -> ignore (insert_edge g u w)
        | Unlink i -> (
          let r = reached g t in
          match List.filter (fun (u, w) -> r u && r w) (A.edges g) with
          | [] -> ()
          | es ->
            let u, w = List.nth es (i mod List.length es) in
            A.remove_edge g u w)
        | Drop i -> (
          let r = reached g t in
          match List.filter (fun u -> u <> t && r u) (List.init c.wn Fun.id) with
          | [] -> ()
          | vs -> A.remove_vertex g (List.nth vs (i mod List.length vs)))
      in
      List.for_all
        (fun (t, op) ->
          let clear_a = not (search a t) and clear_f = not (search f t) in
          clear_a = clear_f
          && ((not clear_a)
             || begin
               between t a op;
               between t f op;
               let x =
                 A.add_edges_vetted_of a ~excluding ~lists ~base ~pick ~chain
                   ~target:t
               and y =
                 A.add_edges_acyclic_of f ~excluding ~lists ~base ~pick ~chain
                   ~target:t
               in
               x = y && (x || A.last_path a = A.last_path f)
             end)
          && same_graph a f)
        steps)

(* The list form: per step, a [reaches_any] from a list B to a list A
   on two copies of the same graph; when it is clear, one op in between,
   then [add_edges_acyclic] of A x B on both. Copy [a] gets the very
   lists the search read, so it reuses the search whenever the record
   stands. Copy [f] gets fresh lists, equal in value, after a cycle
   query that voids its record, so it runs the full insertion even on a
   mutant that skips the list identity check. The answers, a refusal's
   [last_path], the edges, the out-array order and the topological order
   agree. In between: nothing, the same search again, or a marking
   search (the record stands), or a cycle query, a search over other
   lists (fresh ones, equal in value when [Reach] names the same
   vertices), an edge insertion, an edge removal or a vertex removal
   (each voids it). A removal picks what the search reached inside its
   window, so that reusing the search would move the order. It fails on
   mutants that drop the epoch check or the list identity check. *)
let vetted_list_gen =
  QCheck.Gen.(
    witness_gen >>= fun c ->
    let v = int_range 0 (c.wn - 1) in
    let vs = list_size (int_range 1 3) v in
    let op =
      frequency
        [
          (1, return Nothing);
          (1, return Again);
          (1, map (fun u -> Query u) v);
          (1, map (fun u -> Mark_fwd u) v);
          (1, map2 (fun u w -> Reach (u, w)) v v);
          (2, map2 (fun u w -> Link (u, w)) v v);
          (3, map (fun i -> Unlink i) small_nat);
          (3, map (fun i -> Drop i) small_nat);
        ]
    in
    list_size (int_range 1 20) (triple vs vs op) >>= fun steps ->
    return (c, steps))

let print_vetted_list (c, steps) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "%s steps=%s" (print_witness_case c)
    (String.concat ", "
       (List.map
          (fun (aa, bb, op) ->
            Printf.sprintf "[%s]x[%s] after %s" (ints aa) (ints bb)
              (print_between op))
          steps))

let prop_vetted_list =
  QCheck.Test.make ~name:"a vetted list insertion equals the full insertion"
    ~count:1000
    (QCheck.make ~print:print_vetted_list vetted_list_gen)
    (fun (c, steps) ->
      let a, _, _ = build_witness c and f, _, _ = build_witness c in
      (* the vertices the search from [bb] reaches inside its window:
         slots up to the highest of [aa] *)
      let reached g aa bb =
        let pos = Array.make c.wn 0 in
        Array.iteri (fun i u -> pos.(u) <- i) (A.topological_order g);
        let ub = List.fold_left (fun m s -> max m pos.(s)) (-1) aa in
        let seen = Array.make c.wn false in
        let rec go u =
          if (not seen.(u)) && pos.(u) <= ub then begin
            seen.(u) <- true;
            A.iter_succ g u go
          end
        in
        List.iter go bb;
        fun u -> seen.(u)
      in
      let between aa bb g = function
        | Nothing | Mark_bwd -> ()
        | Again -> ignore (A.reaches_any g ~sources:bb ~targets:aa)
        | Query u -> ignore (A.reaches_any g ~sources:[ u ] ~targets:[ u ])
        | Mark_fwd u -> A.mark_reachable g u
        | Reach (u, w) -> ignore (A.reaches_any g ~sources:[ u ] ~targets:[ w ])
        | Link (u, w) -> ignore (insert_edge g u w)
        | Unlink i -> (
          let r = reached g aa bb in
          match List.filter (fun (u, w) -> r u && r w) (A.edges g) with
          | [] -> ()
          | es ->
            let u, w = List.nth es (i mod List.length es) in
            A.remove_edge g u w)
        | Drop i -> (
          let r = reached g aa bb in
          match List.filter r (List.init c.wn Fun.id) with
          | [] -> ()
          | vs -> A.remove_vertex g (List.nth vs (i mod List.length vs)))
      in
      List.for_all
        (fun (aa, bb, op) ->
          let clear_a = not (A.reaches_any a ~sources:bb ~targets:aa)
          and clear_f = not (A.reaches_any f ~sources:bb ~targets:aa) in
          clear_a = clear_f
          && ((not clear_a)
             || begin
               between aa bb a op;
               between aa bb f op;
               let fresh l = List.map Fun.id l in
               let x = A.add_edges_acyclic a ~sources:aa ~targets:bb in
               ignore (A.reaches_any f ~sources:[ 0 ] ~targets:[ 0 ]);
               let y =
                 A.add_edges_acyclic f ~sources:(fresh aa) ~targets:(fresh bb)
               in
               x = y && (x || A.last_path a = A.last_path f)
             end)
          && same_graph a f)
        steps)

let suite =
  [
    Alcotest.test_case "basic ops" `Quick test_basic;
    Alcotest.test_case "cycles" `Quick test_cycles;
    Alcotest.test_case "topological sort" `Quick test_topo;
    Alcotest.test_case "find cycle" `Quick test_find_cycle;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "acyclic basic" `Quick test_acyclic_basic;
    Alcotest.test_case "acyclic reorder" `Quick test_acyclic_reorder;
    Alcotest.test_case "acyclic removal" `Quick test_acyclic_removal;
    Alcotest.test_case "acyclic batch query" `Quick test_acyclic_batch_query;
    Alcotest.test_case "acyclic batch insert" `Quick test_acyclic_batch_insert;
    Alcotest.test_case "acyclic bypass" `Quick test_acyclic_bypass;
    Alcotest.test_case "acyclic memory is linear" `Quick test_acyclic_linear_memory;
    Alcotest.test_case "acyclic slot boundaries" `Quick
      test_acyclic_slot_boundaries;
  ]
  @ qsuite
      [
        prop_cycle_matches_brute;
        prop_topo_respects_edges;
        prop_find_cycle_is_cycle;
        prop_closure_sound;
        prop_acyclic_matches_plain;
        prop_marks_match_reachable;
        prop_last_path;
        prop_batch_matches_plain;
        prop_duplicates_dropped;
        prop_witness_order_free;
        prop_head_read;
        prop_vetted_link;
        prop_vetted_list;
      ]
