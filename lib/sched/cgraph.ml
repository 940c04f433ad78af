open Core

(* Commute compiled to classes. Ops with the same row of the table commute
   with exactly the same ops, so one representative decides every
   conflict of its class, and a step's class is a function of its op
   alone. Classes are numbered by first use, vertex by vertex and step
   by step, so a syntax that uses one class pays for one. [table] gets
   one slot per op ([Op.index] -> class, -1 for an op no step uses),
   which every step reads through its code; the result is each class's
   conflicting classes. *)
let same_row a b =
  List.for_all (fun o -> Commute.commutes a o = Commute.commutes b o) Op.all

let compile n tx_of start codes table =
  let reps = Array.make (Array.length table) Op.Update and k = ref 0 in
  for l = 0 to n - 1 do
    let i = tx_of l in
    for at = start.(i) to start.(i + 1) - 1 do
      let code = Char.code (Bytes.get codes at) in
      if table.(code) < 0 then begin
        let op = Op.of_index code and c = ref 0 in
        while !c < !k && not (same_row reps.(!c) op) do incr c done;
        if !c = !k then begin
          reps.(!k) <- op;
          incr k
        end;
        table.(code) <- !c
      end
    done
  done;
  let k = !k in
  let conflicting a =
    let cs = Array.make k 0 and n = ref 0 in
    for c = 0 to k - 1 do
      if Commute.conflicts reps.(a) reps.(c) then begin
        cs.(!n) <- c;
        incr n
      end
    done;
    Array.sub cs 0 !n
  in
  Array.init k conflicting

let live_bit = 1
let done_bit = 2
let queued_bit = 4

type t = {
  sink : Obs.Sink.t;
  ids : int array; (* [||]: a vertex names itself *)
  (* step [idx] of vertex [l] is slot [start.(id l) + idx] of [vars]
     (its variable) and of [codes] (its op's [Op.index]) *)
  vars : int array;
  start : int array;
  codes : Bytes.t; (* empty when there is one class *)
  table : int array; (* op code -> class; [||] when there is one class *)
  prunable : int -> bool;
  k : int; (* number of classes *)
  conf : int array array; (* class -> the classes it conflicts with *)
  chain : bool array; (* per class: it conflicts with itself *)
  entries : int list array; (* var * k + class -> accessors, no repeats *)
  (* the entries each vertex is on, in the order it gained them: [l]'s
     are the [n_held.(l)] slots from [held_at.(l)], one per distinct
     entry of its steps *)
  held : int array;
  held_at : int array;
  n_held : int array;
  graph : Digraph.Acyclic.t;
  flags : int array; (* per vertex: live, completed, queued bits *)
  work : int array; (* the prune worklist, a stack of work.(0 .. top-1) *)
  mutable top : int;
  mutable version : int;
  push_freed : int -> unit; (* built once, so forget allocates no closure *)
  mutable bypassed : int; (* the entry [keep] reads *)
  keep : int -> bool; (* built once, like [push_freed] *)
  (* the step the last clear [refuses] vetted, or -1: its [grant] reuses
     that search while the graph's record of it stands *)
  mutable vetted : int;
  mutable vetted_idx : int;
}

let has g l bit = g.flags.(l) land bit <> 0
let set g l bit = g.flags.(l) <- g.flags.(l) lor bit
let unset g l bit = g.flags.(l) <- g.flags.(l) land lnot bit

(* Some held slot in [i .. stop-1] is an entry on the variable of base
   [b], in a class of [row]. *)
let rec holds_any g b row i stop =
  i < stop
  && (let c = g.held.(i) - b in
      (c >= 0 && c < g.k && Array.mem c row) || holds_any g b row (i + 1) stop)

(* The queued bit keeps a vertex on the stack at most once, so n slots
   suffice. *)
let push g l =
  if not (has g l queued_bit) then begin
    set g l queued_bit;
    g.work.(g.top) <- l;
    g.top <- g.top + 1
  end

(* One vertex per id when [ids] is given, so an empty [ids] gives none;
   without it, one per transaction. *)
let create ?(sink = Obs.Sink.null) ?ids ?(prunable = fun _ -> true) ~n_vars
    ~vars ~start ~codes () =
  let n, ids =
    match ids with
    | Some ids -> (Array.length ids, ids)
    | None -> (Array.length start - 1, [||])
  in
  let tx_of l = if Array.length ids = 0 then l else ids.(l) in
  let typed = Bytes.length codes > 0 in
  let table = if typed then Array.make (List.length Op.all) (-1) else [||] in
  let conf =
    if typed then compile n tx_of start codes table else [| [| 0 |] |]
  in
  let k = Array.length conf in
  let codes = if k = 1 then Bytes.empty else codes in
  let table = if k = 1 then [||] else table in
  let entries = Array.make (n_vars * k) [] in
  (* [grant] stores an entry once, so a vertex holds at most one slot
     per distinct entry of its steps: one stamp pass counts them, [stamp]
     holding the last vertex seen on each entry. Repeats come unordered,
     so the count takes no branch on them. *)
  let held_at = Array.make (n + 1) 0 and stamp = Array.make (n_vars * k) (-1) in
  for l = 0 to n - 1 do
    let i = tx_of l and distinct = ref 0 in
    (* one class: the entry is the variable, with no multiply per step *)
    if k = 1 then
      for at = start.(i) to start.(i + 1) - 1 do
        distinct := !distinct + Bool.to_int (stamp.(vars.(at)) <> l);
        stamp.(vars.(at)) <- l
      done
    else
      for at = start.(i) to start.(i + 1) - 1 do
        let e = (vars.(at) * k) + table.(Char.code (Bytes.get codes at)) in
        distinct := !distinct + Bool.to_int (stamp.(e) <> l);
        stamp.(e) <- l
      done;
    held_at.(l + 1) <- held_at.(l) + !distinct
  done;
  let held = Array.make held_at.(n) 0 and n_held = Array.make n 0 in
  let graph = Digraph.Acyclic.create n and flags = Array.make n 0 in
  let work = Array.make n 0 in
  let rec g =
    { sink; ids; vars; start; codes; table; prunable; k; conf; entries;
      chain = Array.mapi Array.mem conf; held; held_at; n_held; graph;
      flags; work; top = 0; version = 0;
      push_freed = (fun v ->
        if has g v done_bit && Digraph.Acyclic.in_degree g.graph v = 1 then
          push g v);
      bypassed = 0;
      keep = (fun v ->
        let e = g.bypassed in
        let c = e mod g.k in
        holds_any g (e - c) g.conf.(c) g.held_at.(v)
          (g.held_at.(v) + g.n_held.(v)));
      vetted = -1; vetted_idx = -1 }
  in
  g

let version g = g.version
let live g l = has g l live_bit
let graph g = g.graph
let id g l = if Array.length g.ids = 0 then l else g.ids.(l)

(* The slot of step [idx] of [l]. One past the transaction's end is the
   next one's first slot, so the bound is checked here, for every
   request, grant and search. *)
let slot g l idx =
  let i = id g l in
  let at = g.start.(i) + idx in
  if idx < 0 || at >= g.start.(i + 1) then
    invalid_arg "Sched.Cgraph: step out of range";
  at

let class_at g at =
  if g.k = 1 then 0 else g.table.(Char.code (Bytes.get g.codes at))

let base_at g at = g.vars.(at) * g.k

let search g v l idx =
  let at = slot g l idx in
  Digraph.Acyclic.closes_cycle_any_of g.graph ~excluding:l ~lists:g.entries
    ~base:(base_at g at) ~pick:g.conf.(class_at g at) ~chain:g.chain
    ~target:v

let reaches_sources g v l idx =
  g.vetted <- -1;
  search g v l idx

(* Every candidate edge u -> l ends at [l], so the batch closes a cycle
   iff some conflicting accessor is reachable from [l]. *)
let refuses g l idx =
  search g l l idx
  || begin
    g.vetted <- l;
    g.vetted_idx <- idx;
    false
  end

let mark_reaching_sources g l idx =
  let at = slot g l idx in
  Digraph.Acyclic.mark_reaching_any_of g.graph ~excluding:l ~lists:g.entries
    ~base:(base_at g at) ~pick:g.conf.(class_at g at) ~chain:g.chain

(* Some list [entries.(b + row.(i))], [i <= j], is non-empty. *)
let rec any_nonempty entries b row j =
  j >= 0
  &&
  match entries.(b + row.(j)) with
  | _ :: _ -> true
  | [] -> any_nonempty entries b row (j - 1)

let has_sources g l idx =
  let at = slot g l idx in
  let row = g.conf.(class_at g at) in
  any_nonempty g.entries (base_at g at) row (Array.length row - 1)

let rec emit_edges g l = function
  | [] -> ()
  | u :: us ->
    if u <> l then
      Obs.Sink.record g.sink
        (Obs.Event.Edge_added { src = id g u; dst = id g l });
    emit_edges g l us

(* The distinct other transactions with an entry on the variable but none
   in a class the step conflicts with: those the grant did not serialize
   against. Traced runs only. *)
let rec serialized entries b row u j =
  j < Array.length row
  && (List.memq u entries.(b + row.(j)) || serialized entries b row u (j + 1))

let passed_over g l b row =
  let seen = ref [] in
  let pass u =
    if u <> l && not (List.memq u !seen || serialized g.entries b row u 0) then
      seen := u :: !seen
  in
  for c = 0 to g.k - 1 do
    if not (Array.mem c row) then List.iter pass g.entries.(b + c)
  done;
  List.length !seen

(* [l] holds entry [e]: a scan of its held slots [at .. i-1]. *)
let rec holds g at i e = i > at && (g.held.(i - 1) = e || holds g at (i - 1) e)

(* A repeat entry needs no edge: every conflicting accessor present at the
   entry's first grant reaches [l] since then (through its chain's head,
   on a chain list), and one added since got an edge from [l] at its own
   grant, so [refuses] would have delayed this step. An entry and its
   edges leave together, at removal. A fresh entry's edges go in with
   one insertion, made only when some conflicting list is non-empty: from
   each chain list's head, and from every member of any other list. When
   the last clear [refuses] vetted this very step, the insertion reuses
   its search: the lists are the ones it read, and the graph's own record
   says whether anything searched or changed it since. *)
let grant g l idx =
  let at = slot g l idx in
  let c = class_at g at and b = base_at g at in
  let e = b + c in
  let row = g.conf.(c) in
  let at = g.held_at.(l) in
  let fresh = not (holds g at (at + g.n_held.(l)) e) in
  let vetted = g.vetted = l && g.vetted_idx = idx in
  g.vetted <- -1;
  if
    fresh
    && any_nonempty g.entries b row (Array.length row - 1)
    && not
         (if vetted then
            Digraph.Acyclic.add_edges_vetted_of g.graph ~excluding:l
              ~lists:g.entries ~base:b ~pick:row ~chain:g.chain ~target:l
          else
            Digraph.Acyclic.add_edges_acyclic_of g.graph ~excluding:l
              ~lists:g.entries ~base:b ~pick:row ~chain:g.chain ~target:l)
  then
    Printf.ksprintf failwith
      "Sched.Cgraph: granting step %d of %d closes a cycle, breaking the \
       invariant that attempt vetted it" idx (id g l);
  if Obs.Sink.on g.sink then
    for j = 0 to Array.length row - 1 do
      emit_edges g l g.entries.(b + row.(j))
    done;
  if Obs.Sink.on g.sink && Array.length row < g.k then begin
    let skipped = passed_over g l b row in
    if skipped > 0 then
      Obs.Sink.record g.sink
        (Obs.Event.Commute_pass { tx = id g l; idx; skipped })
  end;
  if fresh then begin
    g.entries.(e) <- l :: g.entries.(e);
    g.held.(at + g.n_held.(l)) <- e;
    g.n_held.(l) <- g.n_held.(l) + 1
  end;
  set g l live_bit

let rec drop (x : int) = function
  | [] -> []
  | y :: ys -> if y = x then ys else y :: drop x ys

(* The member after [x] in a list, newest first: its next-older
   neighbour, or -1. *)
let rec older (x : int) = function
  | [] | [ _ ] -> -1
  | y :: (p :: _ as ys) -> if y = x then p else older x ys

(* Walks only the entries the vertex holds. On a chain list, [l]'s
   next-older neighbour [p] has an edge to [l], and [l] to its newer
   neighbour and to every vertex whose grant took [l] as the list's
   head: [p] gets an edge to each successor of [l] that conflicts with
   the list, so the paths through [l] that the full conflict graph keeps
   survive its removal. Each is a conflict-graph edge, [p]'s entry being
   older than the successor's, so no cycle closes. A vertex with no
   in-edge has no next-older neighbour, so prunes bypass nothing. This
   runs before the successors are queued: a completed successor whose
   last incoming edge this removes is queued for the next drain; no
   other vertex can become prunable here. *)
let forget g l =
  g.version <- g.version + 1;
  g.vetted <- -1;
  let at = g.held_at.(l) in
  let bypassing = Digraph.Acyclic.in_degree g.graph l > 0 in
  for i = at to at + g.n_held.(l) - 1 do
    let e = g.held.(i) in
    if bypassing && g.chain.(e mod g.k) then begin
      let p = older l g.entries.(e) in
      if p >= 0 then begin
        g.bypassed <- e;
        Digraph.Acyclic.bypass g.graph p l g.keep
      end
    end;
    g.entries.(e) <- drop l g.entries.(e)
  done;
  g.n_held.(l) <- 0;
  unset g l live_bit;
  Digraph.Acyclic.iter_succ g.graph l g.push_freed;
  Digraph.Acyclic.remove_vertex g.graph l

(* Without pruning a long-running workload saturates the graph and every
   new request eventually closes a cycle. *)
let rec drain g =
  if g.top > 0 then begin
    g.top <- g.top - 1;
    let l = g.work.(g.top) in
    unset g l queued_bit;
    if
      has g l done_bit && has g l live_bit
      && Digraph.Acyclic.in_degree g.graph l = 0
      && g.prunable l
    then forget g l;
    drain g
  end

let complete g l =
  set g l done_bit;
  push g l;
  drain g

let abort g l =
  unset g l done_bit;
  forget g l

type refusals = { blocked : int array; path : int array array }

let refusals n = { blocked = Array.make n (-1); path = Array.make n [||] }

let refuse r tx idx path =
  r.blocked.(tx) <- idx;
  r.path.(tx) <- path

(* [v] is one of the first [i] ids of [path]; the scan allocates nothing. *)
let rec on_path (v : int) path i =
  i > 0 && (path.(i - 1) = v || on_path v path (i - 1))

(* A transaction with no standing refusal has an empty path: no call. *)
let clear_through r v =
  for tx = 0 to Array.length r.blocked - 1 do
    let path = r.path.(tx) in
    if Array.length path > 0 && on_path v path (Array.length path) then begin
      r.blocked.(tx) <- -1;
      r.path.(tx) <- [||]
    end
  done

(* The kernel's variables are the syntax's own ids, numbered by first
   use, and its steps and codes are the syntax's flat arrays: nothing is
   interned or copied here, and the engine keeps no reference to the
   syntax itself. *)
let scheduler ?sink ~name ~commute syntax =
  let start = Syntax.start syntax in
  (* an untyped syntax has no codes: the one class, as without ops *)
  let codes = if commute then Syntax.codes syntax else Bytes.empty in
  let g =
    create ?sink ~n_vars:(Syntax.n_vars syntax) ~vars:(Syntax.ids syntax)
      ~start ~codes ()
  in
  let r = refusals (Array.length start - 1) in
  (* The cache lookup, spelled out: calling a function for it measured
     ~5% lower end-to-end capacity on the contended [hot] workload. The
     driver reads [blocked] as the engine's standing refusals and skips
     them itself; [attempt] keeps the check for callers that ask without
     reading it, such as [Sim.Des], whose wrapper hides [standing] so
     that every refusal costs a timed decision. *)
  let blocked = r.blocked in
  let attempt ({ tx; idx } : Names.step_id) =
    if blocked.(tx) = idx then Scheduler.Delay
    else if refuses g tx idx then begin
      refuse r tx idx (Digraph.Acyclic.last_path g.graph);
      if Obs.Sink.on g.sink then
        Obs.Sink.record g.sink (Obs.Event.Cycle_refused { tx; idx });
      Scheduler.Delay
    end
    else Scheduler.Grant
  in
  let commit ({ tx; idx } : Names.step_id) =
    grant g tx idx;
    if start.(tx) + idx = start.(tx + 1) - 1 then complete g tx
  in
  (* The requester heads its own path, so this clears its entry too. *)
  let on_abort tx =
    clear_through r tx;
    abort g tx
  in
  Scheduler.make ~name ~attempt ~commit ~on_abort ~standing:blocked ()
