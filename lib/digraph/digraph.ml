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

(* ---------- online acyclicity (window rotation) ---------- *)

type graph = t

module Acyclic = struct
  (* Internals are tuned for the SGT hot path, and every search uses
     epoch-stamped scratch arrays, so queries and edge insertions
     allocate nothing beyond the witness on rejection and the growth of a
     full adjacency array. Each direction of adjacency is an int array
     filled up to the vertex's degree, but only the out-edges have an
     order anyone can see. Out-arrays hold their edges oldest first and
     every walk reads them newest first: that order fixes the DFS order,
     hence every [last_path] witness. Insertion appends: a vertex's first
     edge in a direction gets a one-slot array, and a full array doubles,
     so most vertices, which hold one edge, pay two words for it. Removal
     shifts the tail left, so the rest keep their order and nothing is
     allocated. In-edges are only ever read as sets
     (the backward marks, [pred], which sorts, and the degrees), so
     removal moves the last slot into the freed one. There is no
     adjacency matrix: insertion runs target by target, stamps the
     target's in-neighbours in [want] at a fresh epoch, and links only
     unstamped sources, stamping each as it is linked, so the first
     occurrence of an edge wins; [has_edge] and [remove_edge] scan the
     out-array. Memory is linear in vertices plus edges. *)
  type t = {
    nv : int;
    out_ : int array array; (* slots [0, outdeg u) hold the successors *)
    outdeg : int array;     (* filled length of [out_.(u)] *)
    in_ : int array array;  (* slots [0, indeg v) hold the predecessors *)
    indeg : int array;      (* filled length of [in_.(v)] *)
    ord : int array;   (* vertex -> index in the maintained topo order *)
    back : int array;  (* index -> vertex (inverse of [ord]) *)
    mutable ne : int;
    (* scratch: source marks and edge stamps, by epoch, and the marking
       searches' marks, by mark epoch *)
    want : int array;
    seen : int array;    (* scratch: forward-search marks, by epoch *)
    parent : int array;  (* scratch: witness-path links, -1 at a root *)
    mutable epoch : int;
    mutable mark_ep : int; (* negative, so it never meets an epoch *)
    mutable hit : int;   (* the vertex the last [true] search stopped at *)
    mutable n_marked : int; (* how many the last marking search put in [parent] *)
    (* the last clear [closes_cycle_any_of] or [reaches_any]: its epoch,
       target (-1 for [reaches_any]) and bound, and [reaches_any]'s lists;
       [clear <> epoch] once anything searched or changed the graph *)
    mutable clear : int;
    mutable clear_target : int;
    mutable clear_ub : int;
    mutable clear_from : int list;
    mutable clear_to : int list;
  }

  let create nv =
    if nv < 0 then invalid_arg "Digraph.Acyclic.create: negative size";
    {
      nv;
      out_ = Array.make nv [||];
      outdeg = Array.make nv 0;
      in_ = Array.make nv [||];
      indeg = Array.make nv 0;
      ord = Array.init nv Fun.id;
      back = Array.init nv Fun.id;
      ne = 0;
      want = Array.make nv 0;
      seen = Array.make nv 0;
      parent = Array.make nv (-1);
      epoch = 0;
      mark_ep = 0;
      hit = -1;
      n_marked = 0;
      clear = -1;
      clear_target = -1;
      clear_ub = -1;
      clear_from = [];
      clear_to = [];
    }

  let n_vertices g = g.nv
  let n_edges g = g.ne

  let check g u =
    if u < 0 || u >= g.nv then
      invalid_arg "Digraph.Acyclic: vertex out of range"

  let has_edge g u v =
    check g u;
    check g v;
    let succs = g.out_.(u) in
    let j = ref (g.outdeg.(u) - 1) in
    while !j >= 0 && succs.(!j) <> v do
      decr j
    done;
    !j >= 0

  let sorted a n = List.sort compare (Array.to_list (Array.sub a 0 n))

  let succ g u =
    check g u;
    sorted g.out_.(u) g.outdeg.(u)

  let pred g v =
    check g v;
    sorted g.in_.(v) g.indeg.(v)

  let iter_succ g u f =
    check g u;
    let succs = g.out_.(u) in
    for j = g.outdeg.(u) - 1 downto 0 do
      f succs.(j)
    done

  let in_degree g v =
    check g v;
    g.indeg.(v)

  let edges g =
    let acc = ref [] in
    for u = g.nv - 1 downto 0 do
      for j = 0 to g.outdeg.(u) - 1 do
        acc := (u, g.out_.(u).(j)) :: !acc
      done
    done;
    List.sort compare !acc

  let topological_order g = Array.copy g.back

  (* The search workers live at module level and take all state as
     arguments: one search allocates nothing, not even closures. Each
     first visit links the vertex to the one it was reached from ([p], -1
     at a root), so a [true] answer leaves its path in [parent], ending
     at [hit]. *)
  let rec dfs g ep bound p w =
    if g.seen.(w) = ep then false
    else begin
      g.seen.(w) <- ep;
      g.parent.(w) <- p;
      if g.want.(w) = ep then begin
        g.hit <- w;
        true
      end
      else dfs_succs g ep bound w g.out_.(w) (g.outdeg.(w) - 1)
    end

  and dfs_succs g ep bound p succs j =
    j >= 0
    && ((g.ord.(succs.(j)) <= bound && dfs g ep bound p succs.(j))
       || dfs_succs g ep bound p succs (j - 1))

  (* A source equal to the target: the path is the target alone. *)
  let self_loop g target =
    g.parent.(target) <- -1;
    g.hit <- target;
    true

  (* one pass over the sources: mark, bound, and spot self-loops (the
     [max_int] sentinel). Without [all], only the first source but
     [excluding]: the head of a chain list. *)
  let rec mark_sources g ep ~excluding ~target ~all bound = function
    | [] -> bound
    | u :: us ->
      check g u;
      if u = excluding then mark_sources g ep ~excluding ~target ~all bound us
      else if u = target then max_int
      else begin
        g.want.(u) <- ep;
        let bound = if g.ord.(u) > bound then g.ord.(u) else bound in
        if all then mark_sources g ep ~excluding ~target ~all bound us
        else bound
      end

  (* [mark_sources] over the lists [lists.(base + c)], [c] in [pick]: the
     head alone of a chain list. Every member reaches its head, so the
     head has the highest slot and the bound is the full read's. *)
  let mark_lists g ep ~excluding ~lists ~base ~pick ~chain ~target =
    let bound = ref (-1) and j = ref 0 in
    while !bound <> max_int && !j < Array.length pick do
      let c = pick.(!j) in
      bound :=
        mark_sources g ep ~excluding ~target ~all:(not chain.(c)) !bound
          lists.(base + c);
      incr j
    done;
    !bound

  (* The vertex nearest the root, on the path up from [v], stamped at
     [ep]. *)
  let rec first_wanted g ep v found =
    if v < 0 then found
    else first_wanted g ep g.parent.(v) (if g.want.(v) = ep then v else found)

  (* The witness cut, after a head read found a path: stamp the members
     the read skipped, and move [hit] back to the first source on the
     path. A search that stamps every member descends the same way until
     it meets a source, and stops there: each member reaches its head,
     and a vertex the search has left reaches nothing wanted. *)
  let cut g ep ~excluding ~lists ~base ~pick ~chain =
    let chained = ref false in
    for j = 0 to Array.length pick - 1 do
      let c = pick.(j) in
      if chain.(c) then begin
        chained := true;
        ignore
          (mark_sources g ep ~excluding ~target:(-1) ~all:true (-1)
             lists.(base + c))
      end
    done;
    if !chained then g.hit <- first_wanted g ep g.hit g.hit

  (* Because the maintained order is topological, every edge strictly
     increases [ord]; any path from [target] back to a source therefore
     stays inside the window [ord target, max ord source], which is what
     bounds the search. A clear answer leaves its epoch, target and bound
     for [add_edges_vetted_of]; the marks the rotation needs are its
     DFS's [seen] stamps. *)
  let closes_cycle_any_of g ~excluding ~lists ~base ~pick ~chain ~target =
    check g target;
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let bound = mark_lists g ep ~excluding ~lists ~base ~pick ~chain ~target in
    if bound = max_int then self_loop g target
    else if bound >= g.ord.(target) && dfs g ep bound (-1) target then begin
      cut g ep ~excluding ~lists ~base ~pick ~chain;
      true
    end
    else begin
      g.clear <- ep;
      g.clear_target <- target;
      g.clear_ub <- bound;
      false
    end

  (* Marking searches stamp [want] with a fresh mark epoch, which
     [marked] reads back, and list what they mark in [parent], which no
     marking search reads: [mark_fwd] follows out-edges, [mark_bwd]
     in-edges. Unbounded: they answer for every vertex at once. Mark
     epochs count down from -1 and epochs up from 1, and every other
     reader of [want] compares it to the epoch it just took, so a marking
     search leaves [seen], [epoch] and the record of the last clear
     search as they were. *)
  let note g w =
    g.parent.(g.n_marked) <- w;
    g.n_marked <- g.n_marked + 1

  let rec mark_fwd g ep w =
    if g.want.(w) <> ep then begin
      g.want.(w) <- ep;
      note g w;
      let succs = g.out_.(w) in
      for j = g.outdeg.(w) - 1 downto 0 do
        mark_fwd g ep succs.(j)
      done
    end

  let rec mark_bwd g ep w =
    if g.want.(w) <> ep then begin
      g.want.(w) <- ep;
      note g w;
      let preds = g.in_.(w) in
      for j = 0 to g.indeg.(w) - 1 do
        mark_bwd g ep preds.(j)
      done
    end

  (* Without [all], only the head, as in [mark_sources]: every vertex
     that reaches a member reaches the head. *)
  let rec mark_bwd_sources g ep ~excluding ~all = function
    | [] -> ()
    | u :: us ->
      check g u;
      if u = excluding then mark_bwd_sources g ep ~excluding ~all us
      else begin
        mark_bwd g ep u;
        if all then mark_bwd_sources g ep ~excluding ~all us
      end

  let mark_reachable g u =
    check g u;
    g.mark_ep <- g.mark_ep - 1;
    g.n_marked <- 0;
    mark_fwd g g.mark_ep u

  let mark_reaching_any_of g ~excluding ~lists ~base ~pick ~chain =
    g.mark_ep <- g.mark_ep - 1;
    g.n_marked <- 0;
    for j = 0 to Array.length pick - 1 do
      let c = pick.(j) in
      mark_bwd_sources g g.mark_ep ~excluding ~all:(not chain.(c))
        lists.(base + c)
    done

  let marked g v =
    check g v;
    g.want.(v) = g.mark_ep

  let n_marked g = g.n_marked

  let nth_marked g i =
    if i < 0 || i >= g.n_marked then
      invalid_arg "Digraph.Acyclic.nth_marked: out of range";
    g.parent.(i)

  let rec search_from g ep bound = function
    | [] -> false
    | u :: us ->
      check g u;
      (g.ord.(u) <= bound && dfs g ep bound (-1) u)
      || search_from g ep bound us

  (* Targets are marked as [want] with nothing excluded and no vertex
     equal to [-1]. One seen set serves every source: a vertex an earlier
     source explored without reaching a target cannot reach one from a
     later source. A clear answer leaves its epoch, bound and lists for
     [add_edges_acyclic], with target -1, which no [add_edges_vetted_of]
     asks for. *)
  let reaches_any g ~sources ~targets =
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let bound =
      mark_sources g ep ~excluding:(-1) ~target:(-1) ~all:true (-1) targets
    in
    search_from g ep bound sources
    || begin
      g.clear <- ep;
      g.clear_target <- -1;
      g.clear_ub <- bound;
      g.clear_from <- sources;
      g.clear_to <- targets;
      false
    end

  (* The path up from [hit], root first, filled from its end: the one
     allocation is the array the caller keeps. *)
  let last_path g =
    let rec depth v k = if v < 0 then k else depth g.parent.(v) (k + 1) in
    let path = Array.make (depth g.hit 0) 0 and v = ref g.hit in
    for i = Array.length path - 1 downto 0 do
      path.(i) <- !v;
      v := g.parent.(!v)
    done;
    path

  (* Append [x] to [a.(u)], filled up to [deg.(u)]. An empty array
     becomes the one-slot [[| x |]], allocated inline, and a full one
     doubles. *)
  let push_slot a deg u x =
    let d = deg.(u) in
    if d = 0 && Array.length a.(u) = 0 then a.(u) <- [| x |]
    else begin
      if d = Array.length a.(u) then begin
        let grown = Array.make (2 * d) 0 in
        Array.blit a.(u) 0 grown 0 d;
        a.(u) <- grown
      end;
      a.(u).(d) <- x
    end;
    deg.(u) <- d + 1

  (* Callers drop duplicates first, through [want] stamps. *)
  let link g u v =
    push_slot g.out_ g.outdeg u v;
    push_slot g.in_ g.indeg v u;
    g.ne <- g.ne + 1

  (* Stamp [v]'s in-neighbours at a fresh epoch, which it returns. *)
  let stamp_preds g v =
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let preds = g.in_.(v) in
    for j = 0 to g.indeg.(v) - 1 do
      g.want.(preds.(j)) <- ep
    done;
    ep

  (* Link to [v] every source but [excluding] not stamped at [ep],
     stamping it. *)
  let rec link_sources g ep ~excluding v = function
    | [] -> ()
    | u :: us ->
      if u <> excluding && g.want.(u) <> ep then begin
        g.want.(u) <- ep;
        link g u v
      end;
      link_sources g ep ~excluding v us

  (* Link to [v] the first source but [excluding], unless stamped at
     [ep]: the head of a chain list. *)
  let rec link_head g ep ~excluding v = function
    | [] -> ()
    | u :: us ->
      if u = excluding then link_head g ep ~excluding v us
      else if g.want.(u) <> ep then begin
        g.want.(u) <- ep;
        link g u v
      end

  (* Target by target: each source's out-edges still arrive in target
     order, and only the in-arrays, which are sets, see the difference
     from inserting source by source. *)
  let rec link_targets g sources = function
    | [] -> ()
    | v :: vs ->
      link_sources g (stamp_preds g v) ~excluding:(-1) v sources;
      link_targets g sources vs

  (* The lowest slot of any target, or -1 when a target is a source
     (marked [want] at [ep]), which leaves that self-loop's witness. *)
  let rec low_slot g ep lb = function
    | [] -> lb
    | t :: ts ->
      check g t;
      if g.want.(t) = ep then begin
        ignore (self_loop g t);
        -1
      end
      else low_slot g ep (if g.ord.(t) < lb then g.ord.(t) else lb) ts

  (* Slots [lb, ub] after a search from the targets that reached no
     source: the vertices it marked move after the others, each group in
     its order. An edge from a marked vertex ends at a marked one or past
     [ub]; one from an unmarked vertex of the window keeps going forward;
     and every source sits before [lb] or among the unmarked. So the
     order stays topological with the new edges in it. The marked
     vertices wait in [parent]. *)
  let rotate g ep lb ub =
    let k = ref lb and m = ref 0 in
    for i = lb to ub do
      let w = g.back.(i) in
      if g.seen.(w) = ep then begin
        g.parent.(!m) <- w;
        incr m
      end
      else begin
        g.back.(!k) <- w;
        g.ord.(w) <- !k;
        incr k
      end
    done;
    for j = 0 to !m - 1 do
      let w = g.parent.(j) in
      g.back.(!k + j) <- w;
      g.ord.(w) <- !k + j
    done

  (* Rotate the window [lb, ub] by the marks of a search at [ep] that
     reached no source, then link. *)
  let insert g ep lb ub sources targets =
    if ub >= lb then rotate g ep lb ub;
    g.hit <- -1;
    link_targets g sources targets

  (* Every new edge runs from a source at slot at most [ub] to a target
     at slot at least [lb]: with [ub < lb] the order already holds them.
     Otherwise a cycle is a path from a target back to a source, inside
     the window, and the search for one marks exactly the vertices the
     rotation moves. That search is the recorded [reaches_any]'s when it
     ran from these targets to these sources with nothing since: the
     same marks on the sources, the same bound, and a search from every
     target that, finding nothing, stamps the same vertices whatever the
     order. Lists are immutable, so the very lists it read (physically
     equal) hold the same vertices, and only the rotation and the links
     run. An empty side has no edge to add, and nothing is stamped. *)
  let add_edges_acyclic g ~sources ~targets =
    match (sources, targets) with
    | [], _ | _, [] ->
      g.hit <- -1;
      true
    | _ ->
      if
        g.clear = g.epoch && g.clear_target = -1 && g.clear_from == targets
        && g.clear_to == sources
      then begin
        insert g g.clear (low_slot g g.clear max_int targets) g.clear_ub
          sources targets;
        true
      end
      else begin
        g.epoch <- g.epoch + 1;
        let ep = g.epoch in
        let ub =
          mark_sources g ep ~excluding:(-1) ~target:(-1) ~all:true (-1)
            sources
        in
        let lb = low_slot g ep max_int targets in
        lb >= 0
        && (not (ub >= lb && search_from g ep ub targets))
        && begin
          insert g ep lb ub sources targets;
          true
        end
      end

  (* The search-free half of [add_edges_acyclic_of], after the clear
     [closes_cycle_any_of] it records: rotate the window [ord target,
     clear_ub] by that search's marks, then link. *)
  let rotate_and_link g ~excluding ~lists ~base ~pick ~chain ~target =
    let lb = g.ord.(target) and ub = g.clear_ub in
    if ub >= lb then rotate g g.clear lb ub;
    g.hit <- -1;
    let ep = stamp_preds g target in
    for j = 0 to Array.length pick - 1 do
      let c = pick.(j) in
      if chain.(c) then link_head g ep ~excluding target lists.(base + c)
      else link_sources g ep ~excluding target lists.(base + c)
    done

  let add_edges_acyclic_of g ~excluding ~lists ~base ~pick ~chain ~target =
    (not (closes_cycle_any_of g ~excluding ~lists ~base ~pick ~chain ~target))
    && begin
      rotate_and_link g ~excluding ~lists ~base ~pick ~chain ~target;
      true
    end

  (* Every query and insertion bumps the epoch, and so does every link,
     after [stamp_preds] or in [bypass]; removals drop the record. A
     marking search keeps it: it takes a mark epoch and writes neither
     [seen] nor the graph. So does a list-form insertion with an empty
     side, which changes nothing. *)
  let add_edges_vetted_of g ~excluding ~lists ~base ~pick ~chain ~target =
    if g.clear = g.epoch && g.clear_target = target then begin
      rotate_and_link g ~excluding ~lists ~base ~pick ~chain ~target;
      true
    end
    else add_edges_acyclic_of g ~excluding ~lists ~base ~pick ~chain ~target

  (* [u -> m] puts [u] before [m], and [m] before each of its successors,
     so the order already holds every new edge: nothing is searched. *)
  let bypass g u m keep =
    check g u;
    check g m;
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let succs = g.out_.(u) in
    for j = 0 to g.outdeg.(u) - 1 do
      g.want.(succs.(j)) <- ep
    done;
    if g.want.(m) <> ep then
      invalid_arg "Digraph.Acyclic.bypass: no edge to the bypassed vertex";
    let succs = g.out_.(m) in
    for j = 0 to g.outdeg.(m) - 1 do
      let v = succs.(j) in
      if g.want.(v) <> ep && keep v then begin
        g.want.(v) <- ep;
        link g u v
      end
    done

  (* Drop [x] from [u]'s out-array, searched newest first: the slots
     after it shift left. *)
  let drop_succ g u x =
    let succs = g.out_.(u) and d = g.outdeg.(u) - 1 in
    let j = ref d in
    while succs.(!j) <> x do
      decr j
    done;
    for i = !j to d - 1 do
      succs.(i) <- succs.(i + 1)
    done;
    g.outdeg.(u) <- d

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
    g.clear <- -1;
    if has_edge g u v then begin
      drop_succ g u v;
      drop_pred g v u;
      g.ne <- g.ne - 1
    end

  let remove_vertex g i =
    check g i;
    g.clear <- -1;
    g.ne <- g.ne - g.outdeg.(i) - g.indeg.(i);
    let succs = g.out_.(i) in
    for j = 0 to g.outdeg.(i) - 1 do
      drop_pred g succs.(j) i
    done;
    let preds = g.in_.(i) in
    for j = 0 to g.indeg.(i) - 1 do
      drop_succ g preds.(j) i
    done;
    g.outdeg.(i) <- 0;
    g.indeg.(i) <- 0

  let to_digraph g =
    { n = g.nv; adj = Array.init g.nv (fun u -> Iset.of_list (succ g u)) }
end
