open Core

type level =
  | Read_committed
  | Read_atomic
  | Causal
  | Snapshot_isolation
  | Serializability

let levels =
  [ Read_committed; Read_atomic; Causal; Snapshot_isolation; Serializability ]

let level_name = function
  | Read_committed -> "rc"
  | Read_atomic -> "ra"
  | Causal -> "causal"
  | Snapshot_isolation -> "si"
  | Serializability -> "ser"

let level_of_name s = List.find_opt (fun l -> level_name l = s) levels

let levels_upto level =
  let rec go = function
    | [] -> []
    | l :: rest -> if l = level then [ l ] else l :: go rest
  in
  go levels

type edge_reason =
  | Session
  | Reads_from of Names.var
  | Forced_before of { var : Names.var; source : int; reader : int }
  | Forced_after of { var : Names.var; source : int; reader : int }

type edge = { src : int; dst : int; reason : edge_reason }

type witness =
  | Cycle of edge list
  | Dangling_read of { reader : int; var : Names.var; value : int }
  | Ambiguous_write of { var : Names.var; value : int; writers : int list }
  | Internal_misread of { txn : int; var : Names.var; value : int }
  | No_order of { explored : int }

type verdict = Consistent of int list | Violation of witness | Unknown of string

type result = { level : level; verdict : verdict; split : bool }

(* Search / chase size policy. *)
let default_budget = 2_000_000
let chase_max = 256 (* run the O(n^3) chase only below this *)
let minimal_cycle_max = 2048 (* shortest-cycle extraction bound *)
let causal_bitset_max = 4096 (* per-txn past bitsets bound *)
let causal_vc_sessions = 64 (* vector-clock path bound on sessions *)

(* ---------- well-formedness ---------- *)

let well_formed h =
  let out = ref [] in
  let n = History.n h in
  let seen : (Names.var * int, int) Hashtbl.t = Hashtbl.create 64 in
  for t = 0 to n - 1 do
    List.iter
      (fun (x, v) ->
        if v = History.initial_value then
          out := Ambiguous_write { var = x; value = v; writers = [ t ] } :: !out
        else
          match Hashtbl.find_opt seen (x, v) with
          | Some t' ->
            out :=
              Ambiguous_write { var = x; value = v; writers = [ t'; t ] }
              :: !out
          | None -> Hashtbl.add seen (x, v) t)
      (History.ext_writes h t)
  done;
  for t = 0 to n - 1 do
    (* INT: reads following an own write must return it *)
    let own = ref Names.Vmap.empty in
    List.iter
      (fun (e : History.event) ->
        match e.kind with
        | History.W -> own := Names.Vmap.add e.var e.value !own
        | History.R -> (
          match Names.Vmap.find_opt e.var !own with
          | Some w when w <> e.value ->
            out :=
              Internal_misread { txn = t; var = e.var; value = e.value } :: !out
          | _ -> ()))
      (History.events h t);
    List.iter
      (fun (x, v) ->
        if v <> History.initial_value then
          match History.writer_of h x v with
          | None -> out := Dangling_read { reader = t; var = x; value = v } :: !out
          | Some t' when t' = t ->
            (* an external read returning the reader's own later write *)
            out := Internal_misread { txn = t; var = x; value = v } :: !out
          | Some _ -> ())
      (History.ext_reads h t)
  done;
  List.rev !out

(* ---------- shared derived structure ---------- *)

type ctx = {
  h : History.t;
  n : int;
  t0 : int;
  pairs : (Names.var * int * int) list; (* (x, source, reader); source may be t0 *)
  read_srcs : (Names.var * int) list array; (* reader's ext reads, resolved, in read order *)
  srcs : int list array; (* distinct sources per reader *)
  wset : Names.Vset.t array; (* external write sets *)
  readers_by_src : (Names.var * int) list array; (* pairs sourced at a real txn *)
}

let make_ctx h =
  let n = History.n h in
  let t0 = n in
  let read_srcs = Array.make (n + 1) [] in
  let srcs = Array.make (n + 1) [] in
  let wset = Array.make (n + 1) Names.Vset.empty in
  let readers_by_src = Array.make (n + 1) [] in
  let pairs = ref [] in
  for t = n - 1 downto 0 do
    wset.(t) <-
      List.fold_left
        (fun s (x, _) -> Names.Vset.add x s)
        Names.Vset.empty (History.ext_writes h t);
    let resolved =
      List.map
        (fun (x, v) ->
          match History.writer_of h x v with
          | Some w -> (x, w)
          | None -> (x, t0))
        (History.ext_reads h t)
    in
    read_srcs.(t) <- resolved;
    srcs.(t) <- List.sort_uniq compare (List.map snd resolved);
    List.iter
      (fun (x, w) ->
        if w <> t then begin
          pairs := (x, w, t) :: !pairs;
          if w <> t0 then readers_by_src.(w) <- (x, t) :: readers_by_src.(w)
        end)
      resolved
  done;
  { h; n; t0; pairs = !pairs; read_srcs; srcs; wset; readers_by_src }

let writes_var c t x = t <> c.t0 && Names.Vset.mem x c.wset.(t)

let so c t u =
  (* t strictly precedes u in session order (t0 precedes every txn) *)
  t <> u
  && (t = c.t0
     || u <> c.t0
        && History.session_of c.h t = History.session_of c.h u
        && History.session_pos c.h t < History.session_pos c.h u)

let wr c t u = u <> c.t0 && t <> u && List.mem t c.srcs.(u)

(* ---------- the constraint graph (saturation levels) ---------- *)

type graph = {
  nn : int;
  succ : int list array;
  reasons : (int, edge_reason) Hashtbl.t; (* key src * nn + dst, first wins *)
}

let graph_create nn = { nn; succ = Array.make nn []; reasons = Hashtbl.create 256 }

let graph_add g src dst reason =
  let key = (src * g.nn) + dst in
  if not (Hashtbl.mem g.reasons key) then begin
    Hashtbl.add g.reasons key reason;
    g.succ.(src) <- dst :: g.succ.(src)
  end

let graph_reason g src dst = Hashtbl.find_opt g.reasons ((src * g.nn) + dst)

let base_graph c =
  let g = graph_create (c.n + 1) in
  Array.iter
    (fun ts ->
      if Array.length ts > 0 then graph_add g c.t0 ts.(0) Session;
      for i = 0 to Array.length ts - 2 do
        graph_add g ts.(i) ts.(i + 1) Session
      done)
    (History.sessions c.h);
  List.iter
    (fun (x, src, rdr) -> graph_add g src rdr (Reads_from x))
    c.pairs;
  g

let topo_order g =
  let indeg = Array.make g.nn 0 in
  Array.iter (List.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) g.succ;
  let q = Queue.create () in
  for v = 0 to g.nn - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    order := v :: !order;
    incr count;
    List.iter
      (fun u ->
        indeg.(u) <- indeg.(u) - 1;
        if indeg.(u) = 0 then Queue.add u q)
      g.succ.(v)
  done;
  if !count = g.nn then Some (List.rev !order) else None

(* Extract a justified cycle from a cyclic constraint graph. *)
let cycle_witness g =
  let dg = Digraph.create g.nn in
  Hashtbl.iter
    (fun key _ -> Digraph.add_edge dg (key / g.nn) (key mod g.nn))
    g.reasons;
  let cyc =
    if g.nn <= minimal_cycle_max then Anomaly.minimal_cycle dg
    else Digraph.find_cycle dg
  in
  match cyc with
  | None -> assert false (* caller established cyclicity *)
  | Some vs ->
    let vs = Array.of_list vs in
    let k = Array.length vs in
    Cycle
      (List.init k (fun i ->
           let src = vs.(i) and dst = vs.((i + 1) mod k) in
           let reason =
             match graph_reason g src dst with
             | Some r -> r
             | None -> assert false
           in
           { src; dst; reason }))

(* Causal past: [past t3 t2] iff t3 -> t2 in (SO ∪ WR)+. Two engines:
   session vector clocks (any n, few sessions) or per-txn bitsets
   (any sessions, small n). Computed over an acyclic base graph. *)
let causal_past c order =
  let s = History.n_sessions c.h in
  let preds t =
    (* base-graph predecessors: session predecessor + read sources *)
    let sess = History.session_of c.h t and p = History.session_pos c.h t in
    let chain =
      if p > 0 then [ (History.sessions c.h).(sess).(p - 1) ] else []
    in
    chain @ List.filter (fun u -> u <> c.t0) c.srcs.(t)
  in
  if s <= causal_vc_sessions then begin
    let vc = Array.make_matrix (c.n + 1) s 0 in
    List.iter
      (fun t ->
        if t <> c.t0 then begin
          List.iter
            (fun p ->
              for i = 0 to s - 1 do
                if vc.(p).(i) > vc.(t).(i) then vc.(t).(i) <- vc.(p).(i)
              done)
            (preds t);
          let sess = History.session_of c.h t in
          let self = History.session_pos c.h t + 1 in
          if self > vc.(t).(sess) then vc.(t).(sess) <- self
        end)
      order;
    Some
      (fun t3 t2 ->
        t3 <> t2 && t2 <> c.t0
        && (t3 = c.t0
           || History.session_pos c.h t3 < vc.(t2).(History.session_of c.h t3)))
  end
  else if c.n <= causal_bitset_max then begin
    let words = (c.n + 63) / 64 in
    let past = Array.make_matrix (c.n + 1) words 0L in
    let set m t = m.(t / 64) <- Int64.logor m.(t / 64) (Int64.shift_left 1L (t mod 64)) in
    let mem m t =
      Int64.logand m.(t / 64) (Int64.shift_left 1L (t mod 64)) <> 0L
    in
    List.iter
      (fun t ->
        if t <> c.t0 then
          List.iter
            (fun p ->
              for w = 0 to words - 1 do
                past.(t).(w) <- Int64.logor past.(t).(w) past.(p).(w)
              done;
              set past.(t) p)
            (preds t))
      order;
    Some (fun t3 t2 -> t3 <> t2 && t2 <> c.t0 && (t3 = c.t0 || mem past.(t2) t3))
  end
  else None

(* Forced edges for the co-free premises; the premise never mentions
   co, so one pass suffices (no fixpoint). *)
let add_forced_rc c g =
  Array.iteri
    (fun t2 resolved ->
      if t2 <> c.t0 then begin
        let earlier : (int, unit) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (x, t1) ->
            Hashtbl.iter
              (fun t3 () ->
                if t3 <> t1 && t3 <> t2 && writes_var c t3 x then
                  graph_add g t3 t1
                    (Forced_before { var = x; source = t1; reader = t2 }))
              earlier;
            if t1 <> c.t0 then Hashtbl.replace earlier t1 ())
          resolved
      end)
    c.read_srcs

let add_forced_with_premise c g premise =
  List.iter
    (fun (x, t1, t2) ->
      List.iter
        (fun t3 ->
          if t3 <> t1 && t3 <> t2 && premise t3 t2 then
            graph_add g t3 t1 (Forced_before { var = x; source = t1; reader = t2 }))
        (History.writers c.h x))
    c.pairs

let saturation_check c level =
  let g = base_graph c in
  let forced_ok =
    match level with
    | Read_committed ->
      add_forced_rc c g;
      true
    | Read_atomic ->
      add_forced_with_premise c g (fun t3 t2 -> so c t3 t2 || wr c t3 t2);
      true
    | Causal -> (
      (* the premise needs the causal order, which only exists if the
         base is acyclic; a base cycle is already a violation. [g] holds
         just the base edges yet. *)
      match topo_order g with
      | None -> true (* cyclic base: skip premises, fail below *)
      | Some order -> (
        match causal_past c order with
        | Some premise ->
          add_forced_with_premise c g premise;
          true
        | None -> false))
    | Snapshot_isolation | Serializability -> assert false
  in
  if not forced_ok then
    Unknown
      (Printf.sprintf
         "causal premise needs ≤ %d sessions or ≤ %d transactions"
         causal_vc_sessions causal_bitset_max)
  else
    match topo_order g with
    | Some order -> Consistent (List.filter (fun t -> t <> c.t0) order)
    | None -> Violation (cycle_witness g)

(* ---------- serializability ---------- *)

(* Sound chase on small histories: derive forced edges from both
   contrapositives of the SER axiom over a transitive closure, to
   fixpoint. A diagonal hit gives a justified cycle witness; an acyclic
   fixpoint contributes pruning predecessors for the search. *)
exception Found_cycle of witness

let chase c =
  let nn = c.n + 1 in
  let g = base_graph c in
  let reach = Bytes.make (nn * nn) '\000' in
  let get u v = Bytes.get reach ((u * nn) + v) <> '\000' in
  let set u v = Bytes.set reach ((u * nn) + v) '\001' in
  (* initial closure (DFS from each vertex over base edges) *)
  let rec dfs root v =
    List.iter
      (fun u ->
        if not (get root u) then begin
          set root u;
          dfs root u
        end)
      g.succ.(v)
  in
  for v = 0 to nn - 1 do
    dfs v v
  done;
  let add_closed src dst =
    (* R := R ∪ R·{(src,dst)}·R *)
    for a = 0 to nn - 1 do
      if a = src || get a src then
        for b = 0 to nn - 1 do
          if (b = dst || get dst b) && not (get a b) then set a b
        done
    done
  in
  let check_diagonal () =
    for v = 0 to nn - 1 do
      if get v v then raise (Found_cycle (cycle_witness g))
    done
  in
  try
    check_diagonal ();
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (x, t1, t2) ->
          List.iter
            (fun t3 ->
              if t3 <> t1 && t3 <> t2 then begin
                if get t3 t2 && not (get t3 t1) then begin
                  graph_add g t3 t1
                    (Forced_before { var = x; source = t1; reader = t2 });
                  add_closed t3 t1;
                  changed := true
                end;
                if (t1 = c.t0 || get t1 t3) && not (get t2 t3) then begin
                  graph_add g t2 t3
                    (Forced_after { var = x; source = t1; reader = t2 });
                  add_closed t2 t3;
                  changed := true
                end
              end)
            (History.writers c.h x))
        c.pairs;
      check_diagonal ()
    done;
    Ok g
  with Found_cycle w -> Error w

exception Budget_exhausted

(* Exact decision: a transaction t is appendable to a prefix P iff its
   session predecessors are in P, its read sources are in P, and no
   variable t writes has an open reads-from pair crossing the frontier
   (source in P, reader outside, reader ≠ t). Prefix states are
   per-session counters; reachable states are memoized on failure, so
   the search is an exact decision procedure, polynomial for a bounded
   number of sessions. *)
let search c ~extra_preds ~budget =
  let sessions = History.sessions c.h in
  let s = Array.length sessions in
  let counts = Array.make s 0 in
  let in_p t = t = c.t0 || History.session_pos c.h t < counts.(History.session_of c.h t) in
  let pending : (Names.var, int ref) Hashtbl.t = Hashtbl.create 64 in
  let pending_of x =
    match Hashtbl.find_opt pending x with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add pending x r;
      r
  in
  (* pairs sourced at the initial txn are open from the start *)
  List.iter
    (fun (x, src, _) -> if src = c.t0 then incr (pending_of x))
    c.pairs;
  let appendable t =
    List.for_all (fun (_, src) -> in_p src) c.read_srcs.(t)
    && List.for_all (fun u -> in_p u) extra_preds.(t)
    && Names.Vset.for_all
         (fun x ->
           let open_pairs = match Hashtbl.find_opt pending x with
             | Some r -> !r
             | None -> 0
           in
           let own = if List.exists (fun (y, _) -> y = x) c.read_srcs.(t) then 1 else 0 in
           open_pairs = own)
         c.wset.(t)
  in
  let apply t =
    counts.(History.session_of c.h t) <- History.session_pos c.h t + 1;
    List.iter (fun (x, _) -> decr (pending_of x)) c.read_srcs.(t);
    List.iter (fun (x, _) -> incr (pending_of x)) c.readers_by_src.(t)
  in
  let unapply t =
    counts.(History.session_of c.h t) <- History.session_pos c.h t;
    List.iter (fun (x, _) -> incr (pending_of x)) c.read_srcs.(t);
    List.iter (fun (x, _) -> decr (pending_of x)) c.readers_by_src.(t)
  in
  let failed : (int array, unit) Hashtbl.t = Hashtbl.create 1024 in
  let explored = ref 0 in
  let order = Array.make c.n (-1) in
  let tried = Array.make (c.n + 1) 0 in
  let depth = ref 0 in
  let result = ref None in
  tried.(0) <- 0;
  (try
     while !result = None do
       if !depth = c.n then result := Some (Array.to_list order)
       else begin
         let start =
           if !depth = 0 then 0
           else (History.session_of c.h order.(!depth - 1) + 1) mod s
         in
         (* next untried rotation offset at this depth *)
         let found = ref false in
         while (not !found) && tried.(!depth) < s do
           let off = tried.(!depth) in
           tried.(!depth) <- off + 1;
           let sess = (start + off) mod s in
           if counts.(sess) < Array.length sessions.(sess) then begin
             let t = sessions.(sess).(counts.(sess)) in
             if appendable t then begin
               apply t;
               if Hashtbl.mem failed counts then unapply t
               else begin
                 incr explored;
                 if !explored > budget then raise Budget_exhausted;
                 order.(!depth) <- t;
                 incr depth;
                 tried.(!depth) <- 0;
                 found := true
               end
             end
           end
         done;
         if not !found then begin
           (* state exhausted: record and pop *)
           Hashtbl.replace failed (Array.copy counts) ();
           if !depth = 0 then raise Exit;
           decr depth;
           unapply order.(!depth)
         end
       end
     done;
     match !result with
     | Some o -> Consistent o
     | None -> assert false
   with
  | Exit -> Violation (No_order { explored = !explored })
  | Budget_exhausted ->
    Unknown
      (Printf.sprintf "search budget exhausted after %d states" !explored))

let ser_check ?(budget = default_budget) c =
  let no_preds = Array.make (c.n + 1) [] in
  if c.n = 0 then Consistent []
  else if c.n + 1 <= chase_max then
    match chase c with
    | Error w -> Violation w
    | Ok g ->
      let extra = Array.make (c.n + 1) [] in
      Hashtbl.iter
        (fun key _ ->
          let src = key / g.nn and dst = key mod g.nn in
          if src <> c.t0 && dst <> c.t0 then extra.(dst) <- src :: extra.(dst))
        g.reasons;
      search c ~extra_preds:extra ~budget
  else search c ~extra_preds:no_preds ~budget

(* ---------- snapshot isolation via splitting ---------- *)

let si_token x = "si#" ^ x

let split_si h =
  let n = History.n h in
  let max_val = ref History.initial_value in
  for t = 0 to n - 1 do
    List.iter
      (fun (e : History.event) -> if e.value > !max_val then max_val := e.value)
      (History.events h t)
  done;
  let token_val t = !max_val + 1 + t in
  let half_r t =
    List.map
      (fun (x, v) -> { History.kind = History.R; var = x; value = v })
      (History.ext_reads h t)
    @ List.map
        (fun (x, _) ->
          { History.kind = History.W; var = si_token x; value = token_val t })
        (History.ext_writes h t)
  in
  let half_w t =
    List.map
      (fun (x, _) ->
        { History.kind = History.R; var = si_token x; value = token_val t })
      (History.ext_writes h t)
    @ List.map
        (fun (x, v) -> { History.kind = History.W; var = x; value = v })
        (History.ext_writes h t)
  in
  let sess =
    Array.to_list
      (Array.map
         (fun ts ->
           List.concat_map
             (fun t -> [ half_r t; half_w t ])
             (Array.to_list ts))
         (History.sessions h))
  in
  History.make
    ~label:(History.label h ^ "+split")
    ~complete:(History.complete h) sess

(* ---------- the decision procedure ---------- *)

let check_complete ?budget h level =
  match well_formed h with
  | w :: _ -> { level; verdict = Violation w; split = false }
  | [] -> (
    match level with
    | Read_committed | Read_atomic | Causal ->
      { level; verdict = saturation_check (make_ctx h) level; split = false }
    | Serializability ->
      { level; verdict = ser_check ?budget (make_ctx h); split = false }
    | Snapshot_isolation ->
      let s = split_si h in
      let verdict =
        match well_formed s with
        | w :: _ -> Violation w
        | [] -> ser_check ?budget (make_ctx s)
      in
      { level; verdict; split = true })

let check ?budget h level =
  if not (History.complete h) then
    {
      level;
      verdict =
        Unknown "history reconstructed from a truncated trace; no faithful verdict";
      split = false;
    }
  else check_complete ?budget h level

let check_all ?budget h = List.map (check ?budget h) levels

(* ---------- independent replay oracles ---------- *)

(* Naive saturation of derivable commit-order constraints, written
   with none of the incremental machinery above: repeatedly close
   transitively and scan every axiom instance. Small n only. *)
let derivable c level =
  let nn = c.n + 1 in
  let r = Array.make_matrix nn nn false in
  Array.iter
    (fun ts ->
      Array.iteri
        (fun i t ->
          r.(c.t0).(t) <- true;
          for j = i + 1 to Array.length ts - 1 do
            r.(t).(ts.(j)) <- true
          done)
        ts)
    (History.sessions c.h);
  List.iter (fun (_, src, rdr) -> r.(src).(rdr) <- true) c.pairs;
  let closed = ref false in
  let close () =
    for k = 0 to nn - 1 do
      for i = 0 to nn - 1 do
        if r.(i).(k) then
          for j = 0 to nn - 1 do
            if r.(k).(j) && not r.(i).(j) then r.(i).(j) <- true
          done
      done
    done
  in
  while not !closed do
    close ();
    closed := true;
    List.iter
      (fun (x, t1, t2) ->
        List.iter
          (fun t3 ->
            if t3 <> t1 && t3 <> t2 then
              match level with
              | Serializability ->
                if r.(t3).(t2) && not r.(t3).(t1) then begin
                  r.(t3).(t1) <- true;
                  closed := false
                end;
                if (t1 = c.t0 || r.(t1).(t3)) && not r.(t2).(t3) then begin
                  r.(t2).(t3) <- true;
                  closed := false
                end
              | _ -> ())
          (History.writers c.h x))
      c.pairs
  done;
  r

(* The level premise, evaluated directly from the history (for the
   co-dependent levels, from the independently derived constraints). *)
let premise c level deriv t3 t2 =
  match level with
  | Read_committed ->
    (* t3 sourced a read of t2 placed before t2's read from the pair's
       source — approximated here as: t3 sourced any of t2's reads
       (exact position is checked where the pair is known) *)
    wr c t3 t2
  | Read_atomic -> so c t3 t2 || wr c t3 t2
  | Causal -> (
    match deriv with
    | Some r -> r.(t3).(t2)
    | None -> false)
  | Serializability | Snapshot_isolation -> (
    match deriv with
    | Some r -> r.(t3).(t2)
    | None -> false)

(* Causal reachability for replay: plain closure of SO ∪ WR. *)
let causal_matrix c =
  let nn = c.n + 1 in
  let r = Array.make_matrix nn nn false in
  Array.iter
    (fun ts ->
      Array.iteri
        (fun i t ->
          r.(c.t0).(t) <- true;
          for j = i + 1 to Array.length ts - 1 do
            r.(t).(ts.(j)) <- true
          done)
        ts)
    (History.sessions c.h);
  List.iter (fun (_, src, rdr) -> r.(src).(rdr) <- true) c.pairs;
  for k = 0 to nn - 1 do
    for i = 0 to nn - 1 do
      if r.(i).(k) then
        for j = 0 to nn - 1 do
          if r.(k).(j) then r.(i).(j) <- true
        done
    done
  done;
  r

let rc_premise_at c t2 x_pair t3 =
  (* t3 sourced a read of t2 strictly before t2's read of the pair's
     variable [x_pair] *)
  let rec go = function
    | [] -> false
    | (x, _) :: _ when x = x_pair -> false
    | (_, src) :: rest -> src = t3 || go rest
  in
  go c.read_srcs.(t2)

let resolve_level h level =
  match level with
  | Snapshot_isolation -> (split_si h, Serializability)
  | _ -> (h, level)

let validate_order h0 level0 order =
  let h, level = resolve_level h0 level0 in
  (* For SI the caller already passes split ids; detect that case: the
     order ranges over the split history exactly when level0 = SI. *)
  let c = make_ctx h in
  let order = Array.of_list order in
  let pos = Array.make (c.n + 1) (-2) in
  pos.(c.t0) <- -1;
  let ok = ref (Array.length order = c.n) in
  Array.iteri
    (fun i t ->
      if t < 0 || t >= c.n || pos.(t) <> -2 then ok := false else pos.(t) <- i)
    order;
  !ok
  && Array.for_all
       (fun ts ->
         let sorted = ref true in
         for i = 0 to Array.length ts - 2 do
           if pos.(ts.(i)) >= pos.(ts.(i + 1)) then sorted := false
         done;
         !sorted)
       (History.sessions c.h)
  && List.for_all (fun (_, src, rdr) -> pos.(src) < pos.(rdr)) c.pairs
  && begin
       let deriv =
         match level with
         | Causal -> Some (causal_matrix c)
         | _ -> None
       in
       List.for_all
         (fun (x, t1, t2) ->
           List.for_all
             (fun t3 ->
               t3 = t1 || t3 = t2
               ||
               let p =
                 match level with
                 | Serializability -> pos.(t3) < pos.(t2)
                 | Read_committed -> rc_premise_at c t2 x t3
                 | _ -> premise c level deriv t3 t2
               in
               (not p) || pos.(t3) < pos.(t1))
             (History.writers c.h x))
         c.pairs
     end

let exists_order h0 level0 =
  let h, _ = resolve_level h0 level0 in
  let n = History.n h in
  if n > 8 then invalid_arg "Checker.exists_order: too many transactions";
  let rec perms acc = function
    | [] -> [ List.rev acc ]
    | l ->
      List.concat_map
        (fun x -> perms (x :: acc) (List.filter (fun y -> y <> x) l))
        l
  in
  well_formed h = []
  && List.exists
       (fun o -> validate_order h0 level0 o)
       (perms [] (List.init n Fun.id))

let replay_cycle h0 level0 edges =
  let h, level = resolve_level h0 level0 in
  let c = make_ctx h in
  if c.n > 512 then invalid_arg "Checker.replay_cycle: history too large";
  let deriv =
    match level with
    | Serializability -> Some (derivable c Serializability)
    | Causal -> Some (causal_matrix c)
    | _ -> None
  in
  let valid_edge e =
    e.src >= 0 && e.src <= c.t0 && e.dst >= 0 && e.dst <= c.t0 && e.src <> e.dst
    &&
    match e.reason with
    | Session -> so c e.src e.dst
    | Reads_from x ->
      List.exists (fun (y, t1, t2) -> y = x && t1 = e.src && t2 = e.dst) c.pairs
    | Forced_before { var; source; reader } ->
      let w = e.src in
      e.dst = source && w <> source && w <> reader && writes_var c w var
      && List.exists
           (fun (y, t1, t2) -> y = var && t1 = source && t2 = reader)
           c.pairs
      && (match level with
         | Read_committed -> rc_premise_at c reader var w
         | Read_atomic -> so c w reader || wr c w reader
         | Causal | Serializability -> (Option.get deriv).(w).(reader)
         | Snapshot_isolation -> assert false)
    | Forced_after { var; source; reader } ->
      let w = e.dst in
      e.src = reader && w <> source && w <> reader && writes_var c w var
      && List.exists
           (fun (y, t1, t2) -> y = var && t1 = source && t2 = reader)
           c.pairs
      && (match level with
         | Serializability -> source = c.t0 || (Option.get deriv).(source).(w)
         | _ -> false)
  in
  let k = List.length edges in
  k >= 2
  && List.for_all valid_edge edges
  &&
  let arr = Array.of_list edges in
  Array.for_all
    (fun i -> arr.(i).dst = arr.((i + 1) mod k).src)
    (Array.init k Fun.id)

(* ---------- printing ---------- *)

let node_name ~split ~n t =
  if t = n then "init"
  else if split then Printf.sprintf "T%d.%s" ((t / 2) + 1) (if t mod 2 = 0 then "r" else "c")
  else Printf.sprintf "T%d" (t + 1)

let pp_edge ~split ~n fmt e =
  let nm = node_name ~split ~n in
  let reason =
    match e.reason with
    | Session -> "session order"
    | Reads_from x -> Printf.sprintf "reads %s" x
    | Forced_before { var; source; reader } ->
      Printf.sprintf "axiom on %s: %s already observed by %s, must precede %s"
        var (nm e.src) (nm reader) (nm source)
    | Forced_after { var; source; reader } ->
      Printf.sprintf
        "axiom on %s: %s read %s's write, must precede overwriter %s" var
        (nm reader) (nm source) (nm e.dst)
  in
  Format.fprintf fmt "%s -> %s (%s)" (nm e.src) (nm e.dst) reason

let pp_witness ~split ~n fmt = function
  | Cycle edges ->
    Format.fprintf fmt "@[<v 2>cycle of %d forced edges:" (List.length edges);
    List.iter
      (fun e -> Format.fprintf fmt "@,%a" (pp_edge ~split ~n) e)
      edges;
    Format.fprintf fmt "@]"
  | Dangling_read { reader; var; value } ->
    Format.fprintf fmt "%s reads %s:%d, which no transaction wrote"
      (node_name ~split ~n reader) var value
  | Ambiguous_write { var; value; writers } ->
    Format.fprintf fmt "value %d written to %s by %s" value var
      (String.concat " and " (List.map (node_name ~split ~n) writers))
  | Internal_misread { txn; var; value } ->
    Format.fprintf fmt "%s disagrees with its own write of %s (read %d)"
      (node_name ~split ~n txn) var value
  | No_order { explored } ->
    Format.fprintf fmt
      "exhaustive search proved no valid commit order exists (%d states)"
      explored

let pp_result ~n fmt r =
  let n_eff = if r.split then 2 * n else n in
  match r.verdict with
  | Consistent _ -> Format.fprintf fmt "%-6s consistent" (level_name r.level)
  | Violation w ->
    Format.fprintf fmt "%-6s VIOLATION: %a" (level_name r.level)
      (pp_witness ~split:r.split ~n:n_eff)
      w
  | Unknown msg -> Format.fprintf fmt "%-6s unknown (%s)" (level_name r.level) msg

(* ---------- JSON ---------- *)

let witness_kind = function
  | Cycle _ -> "cycle"
  | Dangling_read _ -> "dangling-read"
  | Ambiguous_write _ -> "ambiguous-write"
  | Internal_misread _ -> "internal-misread"
  | No_order _ -> "no-order"

let to_json ~source hist results =
  let module J = Obs.Json in
  let n = History.n hist in
  let result r =
    let verdict, detail =
      match r.verdict with
      | Consistent order ->
        ("consistent", [ ("order", J.Arr (List.map J.int order)) ])
      | Violation w ->
        let n = if r.split then 2 * n else n in
        let text = Format.asprintf "%a" (pp_witness ~split:r.split ~n) w in
        let kind = J.Str (witness_kind w) in
        ("violation", [ ("witness", J.Obj [ ("kind", kind); ("text", J.Str text) ]) ])
      | Unknown reason -> ("unknown", [ ("reason", J.Str reason) ])
    in
    J.Obj
      ([ ("level", J.Str (level_name r.level)); ("verdict", J.Str verdict);
         ("split", J.Bool r.split) ]
      @ detail)
  in
  J.compact ~spaced:true
    (J.Obj
       [
         ("schema_version", J.int Report.schema_version);
         ("source", J.Str source);
         ("label", J.Str (History.label hist));
         ("txns", J.int n);
         ("events", J.int (History.n_events hist));
         ("complete", J.Bool (History.complete hist));
         ("results", J.Arr (List.map result results));
       ])
