open Core

(* The cross-shard transactions that the latest marking search on a
   shard's graph [g] marked, as coordinator ids, read off the marked
   vertices through the shard's members [mem] and [cross_id] (-1 for a
   single-shard one), in no particular order. *)
let marked_cross g mem cross_id =
  let acc = ref [] in
  for i = 0 to Digraph.Acyclic.n_marked g - 1 do
    let c = cross_id.(mem.(Digraph.Acyclic.nth_marked g i)) in
    if c >= 0 then acc := c :: !acc
  done;
  !acc

(* The same, coordinator ids descending. Local ids run in coordinator-id
   order, so two or more are put in order by a scan of the shard's
   members; the forward search seldom marks two (on [skewed], seed 1, in
   850 of 30246 calls). Either way the list is the only allocation. *)
let marked_cross_desc g mem cross_id =
  let k = ref 0 in
  for i = 0 to Digraph.Acyclic.n_marked g - 1 do
    if cross_id.(mem.(Digraph.Acyclic.nth_marked g i)) >= 0 then incr k
  done;
  if !k < 2 then marked_cross g mem cross_id
  else begin
    let acc = ref [] in
    for l = 0 to Array.length mem - 1 do
      let c = cross_id.(mem.(l)) in
      if c >= 0 && Digraph.Acyclic.marked g l then acc := c :: !acc
    done;
    !acc
  end

(* The shards of mask [m] from [s] up: a commit round's participants. *)
let rec participants m s =
  if m lsr s = 0 then []
  else if m land (1 lsl s) = 0 then participants m (s + 1)
  else s :: participants m (s + 1)

(* The candidate summary edges [a] x [b] of the step [attempt] last let
   through ([tx = -1]: none). *)
type last = {
  mutable tx : int;
  mutable idx : int;
  mutable a : int list;
  mutable b : int list;
}

let forget last =
  last.tx <- -1;
  last.a <- [];
  last.b <- []

let create ?(sink = Obs.Sink.null) ?(shards = 4) ?commit_cross ~syntax () =
  let p = Partition.make ~syntax ~shards in
  let cross_id = p.Partition.cross_id in
  (* One {!Cgraph} kernel per shard, over shard-local ids. Only
     single-shard transactions are prunable: for them a zero in-degree in
     the home shard is a zero global in-degree, exactly the {!Sgt}
     argument. A cross-shard transaction's shard-local in-degree says
     nothing about its edges elsewhere, and dropping its accessor entries
     would lose summary paths. Each kernel reads the syntax's own flat
     variable ids and offsets, as {!Sgt}'s does, through its members:
     local [l] is global [mem.(l)], whose steps start at
     [start.(mem.(l))], and an empty shard's kernel has no vertex. It
     is sized for every variable of the syntax: a kernel reads a step's
     variable only when the step is asked of or granted in it, so the
     other shards' variables keep empty accessor lists there. Nothing
     is numbered or copied per member or per step. *)
  let n_vars = Syntax.n_vars syntax in
  let kernel =
    Array.init shards (fun s ->
        let mem = p.Partition.members.(s) in
        Cgraph.create ~sink ~ids:mem
          ~prunable:(fun l -> cross_id.(mem.(l)) < 0)
          ~n_vars ~vars:p.Partition.vars ~start:p.Partition.start
          ~codes:Bytes.empty ())
  in
  (* The coordinator: a summary graph over coordinator-local ids of the
     cross-shard transactions, materialised only when any exist — on an
     all-single-shard workload nothing below ever touches it. *)
  let cgraph =
    if p.Partition.n_cross = 0 then None
    else Some (Digraph.Acyclic.create p.Partition.n_cross)
  in
  (* a shard's cross-shard members are its only summary-edge endpoints *)
  let has_cross =
    Array.map (Array.exists (fun tx -> cross_id.(tx) >= 0)) p.Partition.members
  in
  (* Delay cache: {!Cgraph.refusals} over global ids. A refusal's
     witness is the path that made it: a kernel refusal's shard path
     [l ~> u], or a summary refusal's [l ~> b] in the shard, [b ~> a] in
     the summary graph, and [a ~> u] in the shard. The {!Cgraph} lemma
     covers the shard paths; summary edges are dropped only when an
     endpoint aborts. So the verdict stands until a transaction on its
     witness aborts, and [blocked] is the engine's standing refusals.
     Coordinator ids [c] are stored as [-1 - c]. *)
  let r = Cgraph.refusals p.Partition.n in
  let blocked = r.Cgraph.blocked in
  (* A shard's fresh witness array, renamed in place to global ids. *)
  let global s path =
    let mem = p.Partition.members.(s) in
    for i = 0 to Array.length path - 1 do
      path.(i) <- mem.(path.(i))
    done;
    path
  in
  (* Candidate summary edges of granting step (tx, idx), shard-local [l]
     in shard [s]: the new intra-shard edges are [h -> l] from the head
     [h] of each prior accessor list, which every prior accessor [u]
     reaches, so every new intra-shard path runs [a ~> u ~> h -> l ~> b].
     Targets B are the cross transactions reachable from [l], [l]
     included, marked by one forward search; sources A are the cross
     transactions of [s] that are or reach some accessor, marked by one
     backward search from the accessors. The search for A never marks
     [l]: [l] reaching an accessor is a cycle the kernel refuses first.
     So A leaves tx out (its only new paths are self-loops through [l]),
     B holds tx exactly when it is cross, and A and B are disjoint: a
     cross in both would put [l ~> a ~> u], another refused cycle. The
     forward search runs first: the backward one starts from every
     accessor, and B is often empty ([l] reaches no cross transaction).
     With no target there is no candidate edge, and A is not searched.
     Both are read off the vertices each search marked, not off every
     cross transaction of the shard: the forward search marks few, and
     the backward one reads a chain list at its head. B is in
     coordinator-id order, descending: its order is the summary search's
     and the out-edges' order. A's reaches neither: its edges go to
     in-arrays, which are sets. *)
  let summary_candidates s l idx =
    let k = kernel.(s) in
    if not has_cross.(s) || not (Cgraph.has_sources k l idx) then ([], [])
    else begin
      let g = Cgraph.graph k in
      Digraph.Acyclic.mark_reachable g l;
      let mem = p.Partition.members.(s) in
      match marked_cross_desc g mem cross_id with
      | [] -> ([], [])
      | bb ->
        Cgraph.mark_reaching_sources k l idx;
        (marked_cross g mem cross_id, bb)
    end
  in
  (* The [commit] that directly follows a grant reuses the candidates
     its [attempt] computed: nothing changes the graphs in between.
     Commit and abort clear them. *)
  let last = { tx = -1; idx = -1; a = []; b = [] } in
  (* The witness of the summary refusal just made: its summary path
     [b ~> a], joined to the shard paths [l ~> b] and [a ~> u], which are
     searched only now. Both searches succeed: the marking searches put
     [b] in B because [l] reaches it, and [a] in A because it reaches a
     conflicting accessor. *)
  let summary_witness s l idx cg =
    let k = kernel.(s) in
    let ba = Digraph.Acyclic.last_path cg in
    let mem = p.Partition.members.(s) in
    let local c =
      Option.get (Array.find_index (fun tx -> cross_id.(tx) = c) mem)
    in
    let shard_path found =
      if found then global s (Digraph.Acyclic.last_path (Cgraph.graph k))
      else failwith "Sched.Sharded: a summary witness lost its shard path"
    in
    let b = local ba.(0) and a = local ba.(Array.length ba - 1) in
    let to_b =
      shard_path
        (Digraph.Acyclic.reaches_any (Cgraph.graph k) ~sources:[ l ]
           ~targets:[ b ])
    in
    let to_u = shard_path (Cgraph.reaches_sources k a l idx) in
    for i = 0 to Array.length ba - 1 do
      ba.(i) <- -1 - ba.(i)
    done;
    Array.concat [ to_b; ba; to_u ]
  in
  (* Would adding every candidate edge close a cycle in the summary
     graph? Every new edge runs from A to B, so a cycle through any of
     them holds an existing-edge path from some target in B to some
     source in A: one search from all of B. The answer is the refusal's
     witness, [[||]] when there is none. *)
  let summary_refusal s l idx tx =
    match cgraph with
    | None -> [||]
    | Some cg ->
      let aa, bb = summary_candidates s l idx in
      let refused =
        match (aa, bb) with
        | [], _ | _, [] -> false
        | _ -> Digraph.Acyclic.reaches_any cg ~sources:bb ~targets:aa
      in
      if refused then summary_witness s l idx cg
      else begin
        last.tx <- tx;
        last.idx <- idx;
        last.a <- aa;
        last.b <- bb;
        [||]
      end
  in
  let attempt (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let s = Partition.shard p tx idx in
    let k = kernel.(s) in
    let l = Partition.local_id p s tx in
    if blocked.(tx) = idx then Scheduler.Delay
    else begin
      if Obs.Sink.on sink then
        Obs.Sink.record sink (Obs.Event.Shard_routed { tx; idx; shard = s });
      let witness =
        if Cgraph.refuses k l idx then
          global s (Digraph.Acyclic.last_path (Cgraph.graph k))
        else summary_refusal s l idx tx
      in
      if Array.length witness > 0 then begin
        Cgraph.refuse r tx idx witness;
        if Obs.Sink.on sink then
          Obs.Sink.record sink (Obs.Event.Cycle_refused { tx; idx });
        Scheduler.Delay
      end
      else begin
        (* Terminal success of a cross-shard transaction: run the
           distributed commit round before granting. An abort here is a
           scheduler abort like any certification refusal — the driver
           restarts the transaction from scratch. *)
        match commit_cross with
        | Some decide
          when Partition.final p tx idx && cross_id.(tx) >= 0
          ->
          if decide ~tx ~shards:(participants p.Partition.mask.(tx) 0)
          then Scheduler.Grant
          else Scheduler.Abort
        | _ -> Scheduler.Grant
      end
    end
  in
  let commit (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let s = Partition.shard p tx idx in
    let l = Partition.local_id p s tx in
    (* discover summary edges against the pre-extension graph: the new
       paths are exactly A x B, and [attempt] vetted them against the
       summary graph. One insertion adds them all, each source's edges
       in the order of B, with one rotation of the summary order. On the
       very lists [attempt]'s clear search read, the insertion sees that
       search in the graph's record, rotates by its marks and searches
       nothing; with no candidate edge it costs nothing. *)
    (match cgraph with
    | None -> ()
    | Some cg ->
      if last.tx <> tx || last.idx <> idx then begin
        let aa, bb = summary_candidates s l idx in
        last.a <- aa;
        last.b <- bb
      end;
      let added =
        Digraph.Acyclic.add_edges_acyclic cg ~sources:last.a ~targets:last.b
      in
      forget last;
      if not added then
        failwith
          "Sched.Sharded: the summary edges of a grant close a cycle, \
           breaking the invariant that attempt vetted them");
    Cgraph.grant kernel.(s) l idx;
    if Partition.final p tx idx then
      Cgraph.complete kernel.(s) l
  in
  let on_abort tx =
    forget last;
    Cgraph.clear_through r tx;
    for s = 0 to shards - 1 do
      let l = Partition.local_id p s tx in
      if l >= 0 then Cgraph.abort kernel.(s) l
    done;
    match cgraph with
    | None -> ()
    | Some cg ->
      if cross_id.(tx) >= 0 then begin
        Cgraph.clear_through r (-1 - cross_id.(tx));
        Digraph.Acyclic.remove_vertex cg cross_id.(tx)
      end
  in
  Scheduler.make ~name:"sharded" ~attempt ~commit ~on_abort ~standing:blocked ()
