open Core

let create ?(sink = Obs.Sink.null) ?(shards = 4) ?commit_cross ~syntax () =
  let p = Partition.make ~syntax ~shards in
  let fmt = Syntax.format syntax in
  let n = p.Partition.n in
  (* Touched-shard lists of the cross-shard transactions, decoded once
     from the partition bitmasks — the participant sets handed to the
     atomic-commit hook. *)
  let shards_of_tx =
    match commit_cross with
    | None -> [||]
    | Some _ ->
      Array.init n (fun tx ->
          if not p.Partition.cross.(tx) then []
          else begin
            let acc = ref [] in
            for s = shards - 1 downto 0 do
              if p.Partition.mask.(tx) land (1 lsl s) <> 0 then acc := s :: !acc
            done;
            !acc
          end)
  in
  (* One {!Cgraph} kernel per shard, over shard-local ids. Only
     single-shard transactions are prunable: for them a zero in-degree in
     the home shard is a zero global in-degree, exactly the {!Sgt}
     argument. A cross-shard transaction's shard-local in-degree says
     nothing about its edges elsewhere, and dropping its accessor entries
     would lose summary paths. A cross-shard transaction's steps
     elsewhere name other shards' local variables. Every kernel is sized
     for the largest shard, so those ids stay in range, and removal
     walking them only reads lists the transaction is not on. *)
  let lvars = p.Partition.lvar_of_step in
  let n_vars = Array.fold_left max 1 p.Partition.n_lvars in
  let kernel =
    Array.init shards (fun s ->
        let mem = p.Partition.members.(s) in
        Cgraph.create ~sink ~ids:mem
          ~prunable:(fun l -> not p.Partition.cross.(mem.(l)))
          ~n_vars ~var_of_step:(Array.map (fun g -> lvars.(g)) mem) ())
  in
  (* The coordinator: a summary graph over coordinator-local ids of the
     cross-shard transactions, materialised only when any exist — on an
     all-single-shard workload nothing below ever touches it. *)
  let cgraph =
    if p.Partition.n_cross = 0 then None
    else Some (Digraph.Acyclic.create p.Partition.n_cross)
  in
  let cversion = ref 0 in
  (* cross-shard transactions present in each shard, as (shard-local id,
     coordinator id, global id): the only candidate endpoints of summary
     edges discovered in that shard *)
  let cross_in_shard =
    Array.init shards (fun s ->
        let acc = ref [] in
        let mem = p.Partition.members.(s) in
        for l = Array.length mem - 1 downto 0 do
          let g = mem.(l) in
          if p.Partition.cross.(g) then
            acc := (l, p.Partition.cross_id.(g), g) :: !acc
        done;
        Array.of_list !acc)
  in
  (* Delay cache: the owning shard's kernel keys a Delay verdict on its
     removal version, and [blocked_cv] adds the coordinator version. The
     verdict stays valid until a removal in that shard (abort or prune
     there) or a coordinator removal (abort of a cross transaction) — the
     only events that can shrink the graphs it was computed on. *)
  let blocked_cv = Array.make n (-1) in
  (* Candidate summary edges of granting step (tx, idx), shard-local [l]
     in shard [s]: the new intra-shard edges are [u -> l] for prior
     accessors [u], so every new intra-shard path runs [a ~> u -> l ~> b].
     Sources A are the cross transactions of [s] reaching some accessor
     (tx itself excluded: its only new paths are self-loops through [l]);
     targets B are the cross transactions reachable from [l], plus tx
     itself when cross. With no accessor to reach, A is empty and
     nothing is searched. *)
  let summary_candidates s l idx tx =
    let k = kernel.(s) in
    if not (Cgraph.has_sources k l idx) then ([], [])
    else begin
      let a = ref [] and b = ref [] in
      Array.iter
        (fun (lc, cc, g) ->
          if g <> tx && Cgraph.live k lc then begin
            if Cgraph.reaches_sources k l idx ~from:lc then a := cc :: !a;
            if Digraph.Acyclic.closes_cycle (Cgraph.graph k) lc l then
              b := cc :: !b
          end)
        cross_in_shard.(s);
      if p.Partition.cross.(tx) then b := p.Partition.cross_id.(tx) :: !b;
      (!a, !b)
    end
  in
  (* Would adding every candidate edge close a cycle in the summary
     graph? Tested per target over the common source set A: a cycle
     through several candidate edges still has some target with an
     existing-edge path to a source in A, so per-target queries cover
     the whole batch. *)
  let summary_refused s l idx tx =
    match cgraph with
    | None -> false
    | Some cg -> (
      match summary_candidates s l idx tx with
      | [], _ | _, [] -> false
      | aa, bb ->
        List.exists
          (fun bt ->
            List.memq bt aa
            || Digraph.Acyclic.closes_cycle_any cg ~sources:aa ~target:bt)
          bb)
  in
  let attempt (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let s = p.Partition.shard_of_step.(tx).(idx) in
    let k = kernel.(s) in
    let l = p.Partition.local_id.(s).(tx) in
    if Cgraph.cached k l idx && blocked_cv.(tx) = !cversion then
      Scheduler.Delay
    else begin
      if Obs.Sink.on sink then
        Obs.Sink.record sink (Obs.Event.Shard_routed { tx; idx; shard = s });
      if Cgraph.refuses k l idx || summary_refused s l idx tx then begin
        Cgraph.block k l idx;
        blocked_cv.(tx) <- !cversion;
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
        | Some decide when idx = fmt.(tx) - 1 && p.Partition.cross.(tx) ->
          if decide ~tx ~shards:shards_of_tx.(tx) then Scheduler.Grant
          else Scheduler.Abort
        | _ -> Scheduler.Grant
      end
    end
  in
  let commit (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let s = p.Partition.shard_of_step.(tx).(idx) in
    let l = p.Partition.local_id.(s).(tx) in
    (* discover summary edges against the pre-extension graph: the new
       paths are exactly A x B, and [attempt] vetted them against the
       summary graph *)
    (match cgraph with
    | None -> ()
    | Some cg ->
      let aa, bb = summary_candidates s l idx tx in
      List.iter
        (fun a ->
          List.iter (fun b -> if a <> b then Cgraph.add_vetted cg a b) bb)
        aa);
    Cgraph.grant kernel.(s) l idx;
    if idx = fmt.(tx) - 1 then Cgraph.complete kernel.(s) l
  in
  let on_abort tx =
    for s = 0 to shards - 1 do
      let l = p.Partition.local_id.(s).(tx) in
      if l >= 0 then Cgraph.abort kernel.(s) l
    done;
    match cgraph with
    | None -> ()
    | Some cg ->
      if p.Partition.cross.(tx) then begin
        Digraph.Acyclic.remove_vertex cg p.Partition.cross_id.(tx);
        incr cversion
      end
  in
  (* No eager [detect], for the same reason as {!Sgt}: a refused request
     dooms only its requester and blocks nobody, so lazy stall
     resolution is strictly cheaper in restarts. *)
  Scheduler.make ~name:"sharded" ~attempt ~commit ~on_abort ()
