module Iset = Set.Make (Int)

type t = { n : int; mutable adj : Iset.t array }

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; adj = Array.make n Iset.empty }

let n_vertices g = g.n

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Digraph: vertex out of range"

let add_edge g u v =
  check g u;
  check g v;
  g.adj.(u) <- Iset.add v g.adj.(u)

let remove_edge g u v =
  check g u;
  check g v;
  g.adj.(u) <- Iset.remove v g.adj.(u)

let has_edge g u v =
  check g u;
  check g v;
  Iset.mem v g.adj.(u)

let succ g u =
  check g u;
  Iset.elements g.adj.(u)

let pred g v =
  check g v;
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    if Iset.mem v g.adj.(u) then acc := u :: !acc
  done;
  !acc

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    Iset.fold (fun v l -> (u, v) :: l) g.adj.(u) []
    |> List.iter (fun e -> acc := e :: !acc)
  done;
  List.sort compare !acc

let n_edges g = Array.fold_left (fun acc s -> acc + Iset.cardinal s) 0 g.adj

let copy g = { n = g.n; adj = Array.copy g.adj }

(* DFS colouring: 0 = white, 1 = grey (on stack), 2 = black. *)
let has_cycle g =
  let colour = Array.make g.n 0 in
  let rec visit u =
    colour.(u) <- 1;
    let cyc =
      Iset.exists
        (fun v -> colour.(v) = 1 || (colour.(v) = 0 && visit v))
        g.adj.(u)
    in
    colour.(u) <- 2;
    cyc
  in
  let rec scan u =
    if u >= g.n then false
    else if colour.(u) = 0 && visit u then true
    else scan (u + 1)
  in
  scan 0

let topological_sort g =
  let indeg = Array.make g.n 0 in
  Array.iter (fun s -> Iset.iter (fun v -> indeg.(v) <- indeg.(v) + 1) s) g.adj;
  (* min-heap substitute: a sorted set of ready vertices for determinism *)
  let ready = ref Iset.empty in
  for u = 0 to g.n - 1 do
    if indeg.(u) = 0 then ready := Iset.add u !ready
  done;
  let order = Array.make g.n 0 in
  let filled = ref 0 in
  while not (Iset.is_empty !ready) do
    let u = Iset.min_elt !ready in
    ready := Iset.remove u !ready;
    order.(!filled) <- u;
    incr filled;
    Iset.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then ready := Iset.add v !ready)
      g.adj.(u)
  done;
  if !filled = g.n then Some order else None

let scc g =
  (* Tarjan's algorithm, iterative to be safe on large graphs. *)
  let index = Array.make g.n (-1) in
  let lowlink = Array.make g.n 0 in
  let on_stack = Array.make g.n false in
  let comp = Array.make g.n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let rec strong u =
    index.(u) <- !next_index;
    lowlink.(u) <- !next_index;
    incr next_index;
    Stack.push u stack;
    on_stack.(u) <- true;
    Iset.iter
      (fun v ->
        if index.(v) < 0 then begin
          strong v;
          lowlink.(u) <- min lowlink.(u) lowlink.(v)
        end
        else if on_stack.(v) then lowlink.(u) <- min lowlink.(u) index.(v))
      g.adj.(u);
    if lowlink.(u) = index.(u) then begin
      let continue = ref true in
      while !continue do
        let w = Stack.pop stack in
        on_stack.(w) <- false;
        comp.(w) <- !next_comp;
        if w = u then continue := false
      done;
      incr next_comp
    end
  in
  for u = 0 to g.n - 1 do
    if index.(u) < 0 then strong u
  done;
  comp

let find_cycle g =
  let colour = Array.make g.n 0 in
  let parent = Array.make g.n (-1) in
  let result = ref None in
  let rec visit u =
    colour.(u) <- 1;
    Iset.iter
      (fun v ->
        if !result = None then
          if colour.(v) = 1 then begin
            (* found a back edge u -> v: walk parents from u back to v *)
            let rec collect w acc =
              if w = v then v :: acc else collect parent.(w) (w :: acc)
            in
            result := Some (collect u [])
          end
          else if colour.(v) = 0 then begin
            parent.(v) <- u;
            visit v
          end)
      g.adj.(u);
    colour.(u) <- 2
  in
  let u = ref 0 in
  while !result = None && !u < g.n do
    if colour.(!u) = 0 then visit !u;
    incr u
  done;
  !result

let reachable g u =
  check g u;
  let seen = Array.make g.n false in
  let rec visit w =
    if not seen.(w) then begin
      seen.(w) <- true;
      Iset.iter visit g.adj.(w)
    end
  in
  visit u;
  seen

let transitive_closure g =
  let closure = create g.n in
  for u = 0 to g.n - 1 do
    let seen = Array.make g.n false in
    let rec visit w =
      Iset.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            add_edge closure u v;
            visit v
          end)
        g.adj.(w)
    in
    visit u
  done;
  closure

let undirected_components g =
  let comp = Array.make g.n (-1) in
  let sym = Array.make g.n Iset.empty in
  for u = 0 to g.n - 1 do
    Iset.iter
      (fun v ->
        sym.(u) <- Iset.add v sym.(u);
        sym.(v) <- Iset.add u sym.(v))
      g.adj.(u)
  done;
  let next = ref 0 in
  let rec visit c u =
    if comp.(u) < 0 then begin
      comp.(u) <- c;
      Iset.iter (visit c) sym.(u)
    end
  in
  for u = 0 to g.n - 1 do
    if comp.(u) < 0 then begin
      visit !next u;
      incr next
    end
  done;
  comp

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph(%d) {" g.n;
  List.iter (fun (u, v) -> Format.fprintf ppf "@ %d -> %d;" u v) (edges g);
  Format.fprintf ppf "@ }@]"

(* ---------- online acyclicity (Pearce–Kelly) ---------- *)

type graph = t

module Acyclic = struct
  (* Internals are tuned for the SGT hot path, and every search uses
     epoch-stamped scratch arrays, so queries and edge insertions
     allocate nothing beyond the witness on rejection. The two directions
     of adjacency are stored differently because only one has an order
     anyone can see. Out-edges are duplicate-free int lists, newest
     first: their order fixes the DFS order, hence every [last_path]
     witness, and degrees are tiny, so list traversal beats balanced-tree
     iteration and insertion allocates one cons. In-edges are only ever
     read as sets (delta-B, the backward marks, [pred], which sorts, and
     the degrees), so each is an unordered int array filled up to
     [indeg]: insertion writes one slot (doubling a full array), and
     removal moves the last slot into the freed one, a scan of words with
     no allocation where a list would copy its prefix. *)
  type t = {
    nv : int;
    out_ : int list array;
    in_ : int array array;  (* slots [0, indeg v) hold the predecessors *)
    indeg : int array;      (* filled length of [in_.(v)] *)
    ord : int array;   (* vertex -> index in the maintained topo order *)
    back : int array;  (* index -> vertex (inverse of [ord]) *)
    mutable ne : int;
    want : int array;    (* scratch: source marks, by epoch *)
    seen : int array;    (* scratch: forward-search marks, by epoch *)
    seen_b : int array;  (* scratch: backward-search marks, by epoch *)
    parent : int array;  (* scratch: witness-path links, -1 at a root *)
    mat : Bytes.t;       (* nv*nv adjacency bitmap: O(1) edge membership *)
    mutable epoch : int;
    mutable hit : int;   (* the vertex the last [true] search stopped at *)
  }

  let create nv =
    if nv < 0 then invalid_arg "Digraph.Acyclic.create: negative size";
    {
      nv;
      out_ = Array.make nv [];
      in_ = Array.make nv [||];
      indeg = Array.make nv 0;
      ord = Array.init nv Fun.id;
      back = Array.init nv Fun.id;
      ne = 0;
      want = Array.make nv 0;
      seen = Array.make nv 0;
      seen_b = Array.make nv 0;
      parent = Array.make nv (-1);
      mat = Bytes.make (nv * nv) '\000';
      epoch = 0;
      hit = -1;
    }

  let n_vertices g = g.nv
  let n_edges g = g.ne

  let check g u =
    if u < 0 || u >= g.nv then
      invalid_arg "Digraph.Acyclic: vertex out of range"

  let mem_edge g u v = Bytes.get g.mat ((u * g.nv) + v) <> '\000'

  let has_edge g u v =
    check g u;
    check g v;
    mem_edge g u v

  let succ g u =
    check g u;
    List.sort compare g.out_.(u)

  let pred g v =
    check g v;
    List.sort compare (Array.to_list (Array.sub g.in_.(v) 0 g.indeg.(v)))

  let iter_succ g u f =
    check g u;
    List.iter f g.out_.(u)

  let in_degree g v =
    check g v;
    g.indeg.(v)

  let edges g =
    let acc = ref [] in
    for u = g.nv - 1 downto 0 do
      List.iter (fun v -> acc := (u, v) :: !acc) g.out_.(u)
    done;
    List.sort compare !acc

  let topological_order g = Array.copy g.back

  (* The search workers live at module level and take all state as
     arguments: one [closes_cycle_any] call allocates nothing, not even
     closures. Each first visit links the vertex to the one it was
     reached from ([p], -1 at a root), so a [true] answer leaves its path
     in [parent], ending at [hit]. *)
  let rec dfs g ep bound p w =
    if g.seen.(w) = ep then false
    else begin
      g.seen.(w) <- ep;
      g.parent.(w) <- p;
      if g.want.(w) = ep then begin
        g.hit <- w;
        true
      end
      else dfs_list g ep bound w g.out_.(w)
    end

  and dfs_list g ep bound p = function
    | [] -> false
    | x :: xs ->
      (g.ord.(x) <= bound && dfs g ep bound p x) || dfs_list g ep bound p xs

  (* A source equal to the target: the path is the target alone. *)
  let self_loop g target =
    g.parent.(target) <- -1;
    g.hit <- target;
    true

  (* one pass over the sources: mark, bound, and spot self-loops (the
     [max_int] sentinel) *)
  let rec mark_sources g ep ~excluding ~target bound = function
    | [] -> bound
    | u :: us ->
      check g u;
      if u = excluding then mark_sources g ep ~excluding ~target bound us
      else if u = target then max_int
      else begin
        g.want.(u) <- ep;
        mark_sources g ep ~excluding ~target
          (if g.ord.(u) > bound then g.ord.(u) else bound)
          us
      end

  (* Because the maintained order is topological, every edge strictly
     increases [ord]; any path from [target] back to a source therefore
     stays inside the window [ord target, max ord source], which is what
     bounds the search. *)
  let closes_cycle_any ?(excluding = -1) g ~sources ~target =
    check g target;
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let bound = mark_sources g ep ~excluding ~target (-1) sources in
    if bound = max_int then self_loop g target
    else bound >= g.ord.(target) && dfs g ep bound (-1) target

  let closes_cycle_any_of g ~excluding ~lists ~base ~pick ~target =
    check g target;
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let bound = ref (-1) and j = ref 0 in
    while !bound <> max_int && !j < Array.length pick do
      bound :=
        mark_sources g ep ~excluding ~target !bound lists.(base + pick.(!j));
      incr j
    done;
    if !bound = max_int then self_loop g target
    else !bound >= g.ord.(target) && dfs g ep !bound (-1) target

  let closes_cycle g u v = closes_cycle_any g ~sources:[ u ] ~target:v

  (* Marking searches stamp [seen] with a fresh epoch, which [marked]
     reads back: [mark_fwd] follows out-edges, [mark_bwd] in-edges.
     Unbounded: they answer for every vertex at once. *)
  let rec mark_fwd g ep w =
    if g.seen.(w) <> ep then begin
      g.seen.(w) <- ep;
      mark_fwd_list g ep g.out_.(w)
    end

  and mark_fwd_list g ep = function
    | [] -> ()
    | x :: xs ->
      mark_fwd g ep x;
      mark_fwd_list g ep xs

  let rec mark_bwd g ep w =
    if g.seen.(w) <> ep then begin
      g.seen.(w) <- ep;
      let preds = g.in_.(w) in
      for j = 0 to g.indeg.(w) - 1 do
        mark_bwd g ep preds.(j)
      done
    end

  let rec mark_bwd_sources g ep ~excluding = function
    | [] -> ()
    | u :: us ->
      check g u;
      if u <> excluding then mark_bwd g ep u;
      mark_bwd_sources g ep ~excluding us

  let mark_reachable g u =
    check g u;
    g.epoch <- g.epoch + 1;
    mark_fwd g g.epoch u

  let mark_reaching_any_of g ~excluding ~lists ~base ~pick =
    g.epoch <- g.epoch + 1;
    for j = 0 to Array.length pick - 1 do
      mark_bwd_sources g g.epoch ~excluding lists.(base + pick.(j))
    done

  let marked g v =
    check g v;
    g.seen.(v) = g.epoch

  let rec search_from g ep bound = function
    | [] -> false
    | u :: us ->
      check g u;
      (g.ord.(u) <= bound && dfs g ep bound (-1) u)
      || search_from g ep bound us

  (* Targets are marked as [want] with nothing excluded and no vertex
     equal to [-1]. One seen set serves every source: a vertex an earlier
     source explored without reaching a target cannot reach one from a
     later source. *)
  let reaches_any g ~sources ~targets =
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let bound = mark_sources g ep ~excluding:(-1) ~target:(-1) (-1) targets in
    search_from g ep bound sources

  let last_path g =
    let rec up v acc = if v < 0 then acc else up g.parent.(v) (v :: acc) in
    up g.hit []

  let insert g u v =
    (* caller guarantees the edge is absent *)
    g.out_.(u) <- v :: g.out_.(u);
    let d = g.indeg.(v) in
    if d = Array.length g.in_.(v) then begin
      let grown = Array.make (max 4 (2 * d)) 0 in
      Array.blit g.in_.(v) 0 grown 0 d;
      g.in_.(v) <- grown
    end;
    g.in_.(v).(d) <- u;
    g.indeg.(v) <- d + 1;
    Bytes.set g.mat ((u * g.nv) + v) '\001';
    g.ne <- g.ne + 1

  let add_edge_acyclic g u v =
    check g u;
    check g v;
    if u = v then Error [ u ]
    else if mem_edge g u v then Ok ()
    else if g.ord.(u) < g.ord.(v) then begin
      insert g u v;
      Ok ()
    end
    else begin
      (* ord v < ord u: the affected region is the window [lb, ub] *)
      let lb = g.ord.(v) and ub = g.ord.(u) in
      g.epoch <- g.epoch + 1;
      let ep = g.epoch in
      let hit = ref false in
      (* forward from v, restricted to the window; delta-F on success *)
      let rec fwd w =
        if not !hit then begin
          g.seen.(w) <- ep;
          List.iter
            (fun x ->
              if (not !hit) && g.ord.(x) <= ub && g.seen.(x) <> ep then begin
                g.parent.(x) <- w;
                if x = u then begin
                  g.seen.(x) <- ep;
                  hit := true
                end
                else fwd x
              end)
            g.out_.(w)
        end
      in
      fwd v;
      if !hit then begin
        (* path v -> ... -> u exists; the new edge u -> v closes it *)
        let rec walk w acc =
          if w = v then v :: acc else walk g.parent.(w) (w :: acc)
        in
        Error (walk u [])
      end
      else begin
        (* delta-B: everything reaching u inside the window *)
        let rec bwd w =
          if g.seen_b.(w) <> ep then begin
            g.seen_b.(w) <- ep;
            let preds = g.in_.(w) in
            for j = 0 to g.indeg.(w) - 1 do
              let x = preds.(j) in
              if g.ord.(x) >= lb then bwd x
            done
          end
        in
        bwd u;
        (* reassign the union's slots: delta-B keeps its relative order
           and moves before delta-F, which keeps its relative order too *)
        let df = ref [] and db = ref [] and slots = ref [] in
        for i = ub downto lb do
          let w = g.back.(i) in
          if g.seen_b.(w) = ep then begin
            db := w :: !db;
            slots := i :: !slots
          end
          else if g.seen.(w) = ep then begin
            df := w :: !df;
            slots := i :: !slots
          end
        done;
        let rec place ws slots =
          match (ws, slots) with
          | [], rest -> rest
          | w :: ws', s :: ss' ->
            g.ord.(w) <- s;
            g.back.(s) <- w;
            place ws' ss'
          | _ :: _, [] -> assert false
        in
        let rest = place !db !slots in
        let rest = place !df rest in
        assert (rest = []);
        insert g u v;
        Ok ()
      end
    end

  (* Out-lists hold no repeats: drop the one occurrence, copying only
     the prefix before it. *)
  let rec drop x = function
    | [] -> []
    | y :: ys -> if y = x then ys else y :: drop x ys

  (* Drop [u] from [v]'s in-array: the last filled slot moves into its
     place. *)
  let drop_pred g v u =
    let preds = g.in_.(v) and d = g.indeg.(v) - 1 in
    let j = ref 0 in
    while preds.(!j) <> u do
      incr j
    done;
    preds.(!j) <- preds.(d);
    g.indeg.(v) <- d

  let remove_edge g u v =
    check g u;
    check g v;
    if mem_edge g u v then begin
      g.out_.(u) <- drop v g.out_.(u);
      drop_pred g v u;
      Bytes.set g.mat ((u * g.nv) + v) '\000';
      g.ne <- g.ne - 1
    end

  let rec unlink_succs g i = function
    | [] -> ()
    | x :: xs ->
      Bytes.set g.mat ((i * g.nv) + x) '\000';
      drop_pred g x i;
      unlink_succs g i xs

  let remove_vertex g i =
    check g i;
    g.ne <- g.ne - List.length g.out_.(i) - g.indeg.(i);
    unlink_succs g i g.out_.(i);
    let preds = g.in_.(i) in
    for j = 0 to g.indeg.(i) - 1 do
      let x = preds.(j) in
      Bytes.set g.mat ((x * g.nv) + i) '\000';
      g.out_.(x) <- drop i g.out_.(x)
    done;
    g.out_.(i) <- [];
    g.indeg.(i) <- 0

  let to_digraph g =
    { n = g.nv; adj = Array.map Iset.of_list g.out_ }
end
