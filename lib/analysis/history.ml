open Core

type kind = R | W

type event = { kind : kind; var : Names.var; value : int }

let initial_value = 0

type t = {
  label : string;
  complete : bool;
  txns : event list array;
  session : int array;
  pos : int array;
  sessions : int array array;
  ext_reads : (Names.var * int) list array;
  ext_writes : (Names.var * int) list array;
  writers_tbl : (Names.var, int list) Hashtbl.t;
  writer_tbl : (Names.var * int, int) Hashtbl.t;
  n_events : int;
}

let label h = h.label
let complete h = h.complete
let n h = Array.length h.txns
let n_events h = h.n_events
let events h t = h.txns.(t)
let n_sessions h = Array.length h.sessions
let session_of h t = h.session.(t)
let session_pos h t = h.pos.(t)
let sessions h = h.sessions
let ext_reads h t = h.ext_reads.(t)
let ext_writes h t = h.ext_writes.(t)

let writers h x =
  match Hashtbl.find_opt h.writers_tbl x with Some l -> l | None -> []

let writer_of h x v =
  if v = initial_value then None else Hashtbl.find_opt h.writer_tbl (x, v)

let vars h =
  let s =
    Array.fold_left
      (fun s evs ->
        List.fold_left (fun s e -> Names.Vset.add e.var s) s evs)
      Names.Vset.empty h.txns
  in
  Names.Vset.elements s

(* External reads: first read per variable before any own write of it.
   External writes: last write per variable (sorted by name). *)
let externals evs =
  let reads = ref [] in
  let read_seen = ref Names.Vset.empty in
  let written = ref Names.Vmap.empty in
  List.iter
    (fun e ->
      match e.kind with
      | R ->
        if
          (not (Names.Vmap.mem e.var !written))
          && not (Names.Vset.mem e.var !read_seen)
        then begin
          reads := (e.var, e.value) :: !reads;
          read_seen := Names.Vset.add e.var !read_seen
        end
      | W -> written := Names.Vmap.add e.var e.value !written)
    evs;
  (List.rev !reads, Names.Vmap.bindings !written)

let build ~label ~complete (sess : event list list list) =
  let txns = Array.of_list (List.concat sess) in
  let nt = Array.length txns in
  let session = Array.make nt 0 in
  let pos = Array.make nt 0 in
  let sessions =
    let id = ref 0 in
    List.map
      (fun ts ->
        Array.of_list
          (List.mapi
             (fun p _ ->
               let t = !id in
               incr id;
               session.(t) <- 0;
               (* session id patched below *)
               pos.(t) <- p;
               t)
             ts))
      sess
    |> Array.of_list
  in
  Array.iteri
    (fun s ts -> Array.iter (fun t -> session.(t) <- s) ts)
    sessions;
  let ext_reads = Array.make nt [] in
  let ext_writes = Array.make nt [] in
  let writers_rev : (Names.var, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let writer_tbl = Hashtbl.create 256 in
  let n_events = ref 0 in
  for t = 0 to nt - 1 do
    n_events := !n_events + List.length txns.(t);
    let r, w = externals txns.(t) in
    ext_reads.(t) <- r;
    ext_writes.(t) <- w;
    List.iter
      (fun (x, v) ->
        (match Hashtbl.find_opt writers_rev x with
        | Some l -> l := t :: !l
        | None -> Hashtbl.add writers_rev x (ref [ t ]));
        if not (Hashtbl.mem writer_tbl (x, v)) then
          Hashtbl.add writer_tbl (x, v) t)
      w
  done;
  let writers_tbl = Hashtbl.create (Hashtbl.length writers_rev) in
  Hashtbl.iter (fun x l -> Hashtbl.add writers_tbl x (List.rev !l)) writers_rev;
  {
    label;
    complete;
    txns;
    session;
    pos;
    sessions;
    ext_reads;
    ext_writes;
    writers_tbl;
    writer_tbl;
    n_events = !n_events;
  }

let make ?(label = "history") ?(complete = true) sess =
  build ~label ~complete sess

(* ---------- construction from schedules and traces ---------- *)

(* Value-semantics replay: each RMW step reads the variable's current
   value and installs a globally fresh one; an [Op.Read] step only
   reads. Blind and semantic ops ([Op.observes op = false]) install a
   fresh value without emitting a read event — the client observes
   nothing of the value they replaced, which is exactly what lets the
   semantic scheduler reorder them: the checker's reads-from axioms
   place no constraint between two blind writes.

   The projection is sound but incomplete for semantic histories: the
   checker can never be tricked into accepting an incorrect history,
   but a commutative-serializable interleaving whose rw projection is
   not rw-serializable (e.g. a transaction reads a counter it bumped
   after a foreign bump slipped in between — fine under counter
   semantics, a lost-update shape to the INT axiom) is correctly
   rejected at the rw level. Observer-free semantic histories (every
   event W-only) always verify; test/test_semantic.ml pins both
   directions. *)
let replay ~label ~complete syntax (steps : (int * int) list) =
  let nt = Syntax.n_transactions syntax in
  let bufs = Array.make nt [] in
  let cur : (Names.var, int) Hashtbl.t = Hashtbl.create 64 in
  let fresh = ref initial_value in
  List.iter
    (fun (tx, idx) ->
      if tx < 0 || tx >= nt then
        invalid_arg (Printf.sprintf "History: step of unknown transaction %d" tx);
      if idx < 0 || idx >= Syntax.length syntax tx then
        invalid_arg
          (Printf.sprintf "History: transaction %d has no step %d" tx idx);
      let x = Syntax.var syntax (Names.step tx idx) in
      let v = match Hashtbl.find_opt cur x with Some v -> v | None -> initial_value in
      let op = Syntax.kind syntax (Names.step tx idx) in
      if Op.observes op then
        bufs.(tx) <- { kind = R; var = x; value = v } :: bufs.(tx);
      if Op.writes op then begin
        incr fresh;
        Hashtbl.replace cur x !fresh;
        bufs.(tx) <- { kind = W; var = x; value = !fresh } :: bufs.(tx)
      end)
    steps;
  build ~label ~complete
    (Array.to_list (Array.map (fun evs -> [ List.rev evs ]) bufs))

let of_schedule ?(label = "schedule") syntax sched =
  replay ~label ~complete:true syntax
    (Array.to_list
       (Array.map (fun (s : Names.step_id) -> (s.tx, s.idx)) sched))

let of_steps ?(label = "trace") ~complete syntax steps =
  replay ~label ~complete syntax steps

(* ---------- mutations ---------- *)

type mutation = Swap_reads | Drop_write | Rewire_read

let mutations = [ Swap_reads; Drop_write; Rewire_read ]

let mutation_name = function
  | Swap_reads -> "swap-reads"
  | Drop_write -> "drop-write"
  | Rewire_read -> "rewire-read"

let mutation_of_name s =
  List.find_opt (fun m -> mutation_name m = s) mutations

let with_txn h t evs =
  let txns = Array.copy h.txns in
  txns.(t) <- evs;
  let sess =
    Array.to_list
      (Array.map
         (fun ts -> List.map (fun t -> txns.(t)) (Array.to_list ts))
         h.sessions)
  in
  build ~label:h.label ~complete:h.complete sess

(* Replace the first (external) read of [x] with value [v']. *)
let replace_ext_read evs x v' =
  let rec go own_write acc = function
    | [] -> List.rev acc
    | e :: rest ->
      if e.kind = R && e.var = x && not own_write then
        List.rev_append acc ({ e with value = v' } :: rest)
      else
        go (own_write || (e.kind = W && e.var = x)) (e :: acc) rest
  in
  go false [] evs

(* Delete the last write of [x]. *)
let drop_last_write evs x =
  let rec go acc = function
    | [] -> List.rev acc
    | e :: rest ->
      if e.kind = W && e.var = x then List.rev_append acc rest
      else go (e :: acc) rest
  in
  go [] (List.rev evs) |> List.rev

let value_of x l = List.assoc_opt x l

let mutate kind rng h =
  let nt = n h in
  let sites = ref [] in
  (match kind with
  | Swap_reads ->
    (* t2 reads x from t1; t1 reads x and t2 writes x: point t1's read
       at t2's write instead. *)
    for t2 = 0 to nt - 1 do
      List.iter
        (fun (x, v) ->
          match writer_of h x v with
          | Some t1 when t1 <> t2 -> (
            match (value_of x h.ext_reads.(t1), value_of x h.ext_writes.(t2)) with
            | Some _, Some v2 -> sites := (t1, x, v2) :: !sites
            | _ -> ())
          | _ -> ())
        h.ext_reads.(t2)
    done
  | Drop_write ->
    (* t1's write of x is read by someone else: delete it. *)
    for t2 = 0 to nt - 1 do
      List.iter
        (fun (x, v) ->
          match writer_of h x v with
          | Some t1 when t1 <> t2 -> sites := (t1, x, v) :: !sites
          | _ -> ())
        h.ext_reads.(t2)
    done
  | Rewire_read ->
    (* chain t1 -x-> t2 -x-> t3 with t3 an x-writer: t3 skips back to
       t1's value (write skew on x, invisible to the reads-from graph) *)
    for t3 = 0 to nt - 1 do
      List.iter
        (fun (x, v) ->
          match writer_of h x v with
          | Some t2 when t2 <> t3 -> (
            match (value_of x h.ext_reads.(t2), value_of x h.ext_writes.(t3)) with
            | Some v_prev, Some _
              when writer_of h x v_prev <> Some t3 && v_prev <> v ->
              sites := (t3, x, v_prev) :: !sites
            | _ -> ())
          | _ -> ())
        h.ext_reads.(t3)
    done);
  match !sites with
  | [] -> None
  | sites ->
    let sites = List.sort compare sites in
    let t, x, v = List.nth sites (Random.State.int rng (List.length sites)) in
    let label = h.label ^ "+" ^ mutation_name kind in
    let h' =
      match kind with
      | Swap_reads | Rewire_read ->
        with_txn h t (replace_ext_read h.txns.(t) x v)
      | Drop_write -> with_txn h t (drop_last_write h.txns.(t) x)
    in
    Some { h' with label }

(* ---------- generation ---------- *)

let generate ~seed ~sessions ~txns ~steps ~n_vars =
  if sessions < 1 || txns < 0 || steps < 1 || n_vars < 1 then
    invalid_arg "History.generate";
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  let cur = Array.make n_vars initial_value in
  let var i = "v" ^ string_of_int i in
  let fresh = ref initial_value in
  let sess = Array.make sessions [] in
  (* global serial execution order 0, 1, ..., dealt round-robin: the
     session order is a suborder of the execution order, so the result
     is consistent at every level with witness order 0..txns-1 *)
  for t = 0 to txns - 1 do
    let evs = ref [] in
    for _ = 1 to steps do
      let i = Random.State.int rng n_vars in
      incr fresh;
      evs :=
        { kind = W; var = var i; value = !fresh }
        :: { kind = R; var = var i; value = cur.(i) }
        :: !evs;
      cur.(i) <- !fresh
    done;
    let s = t mod sessions in
    sess.(s) <- List.rev !evs :: sess.(s)
  done;
  let sess = Array.to_list (Array.map List.rev sess) in
  build
    ~label:
      (Printf.sprintf "generated(seed=%d,s=%d,t=%d,k=%d,v=%d)" seed sessions
         txns steps n_vars)
    ~complete:true sess

