open Core

type version = { value : int; writer : int; ts : int }

type txn = {
  id : int;
  snap : int;
  mutable reads : Names.Vset.t;
  mutable writes : (Names.var * int) list; (* newest first *)
  mutable commit_ts : int option;
  mutable in_rw : bool;
  mutable out_rw : bool;
}

type t = {
  chains : (Names.var, version list ref) Hashtbl.t; (* newest first *)
  mutable clock : int;
  mutable fresh : int;
  live : (int, txn) Hashtbl.t;
  mutable retained : txn list;
}

let initial_value = 0

let create () =
  {
    chains = Hashtbl.create 64;
    clock = 0;
    fresh = initial_value;
    live = Hashtbl.create 16;
    retained = [];
  }

let clock st = st.clock

let chain st x =
  match Hashtbl.find_opt st.chains x with Some r -> !r | None -> []

let newest st x = match chain st x with v :: _ -> Some v | [] -> None

let begin_txn st id =
  let txn =
    {
      id;
      snap = st.clock;
      reads = Names.Vset.empty;
      writes = [];
      commit_ts = None;
      in_rw = false;
      out_rw = false;
    }
  in
  Hashtbl.replace st.live id txn;
  txn

let live_txn st id = Hashtbl.find_opt st.live id
let snapshot t = t.snap
let reads_of t = Names.Vset.elements t.reads

(* Newest committed version visible at snapshot [snap]; the store is
   born with every variable at [initial_value] (timestamp 0). *)
let read_at st x ~snap =
  let rec visible = function
    | [] -> initial_value
    | v :: rest -> if v.ts <= snap then v.value else visible rest
  in
  visible (chain st x)

let read st t x =
  match List.assoc_opt x t.writes with
  | Some v -> (v, None) (* own buffered write; not an antidependency source *)
  | None ->
    t.reads <- Names.Vset.add x t.reads;
    let rec visible = function
      | [] -> (initial_value, None)
      | v :: rest ->
        if v.ts <= t.snap then (v.value, Some v.writer) else visible rest
    in
    visible (chain st x)

let write st t x =
  st.fresh <- st.fresh + 1;
  t.writes <- (x, st.fresh) :: t.writes;
  st.fresh

(* First-committer-wins: does any variable in [vars] carry a committed
   version newer than [snap] installed by someone else? Pure query. *)
let ww_conflict st ~snap ~excluding vars =
  List.find_opt
    (fun x ->
      List.exists
        (fun v -> v.ts > snap && v.writer <> excluding)
        (chain st x))
    vars

(* Distinct writers of committed versions of [x] newer than [than] —
   the rw-antidependency targets of a transaction that read [x] under
   snapshot [than]. Pure query. *)
let newer_writers st x ~than ~excluding =
  chain st x
  |> List.filter_map (fun v ->
         if v.ts > than && v.writer <> excluding then Some v.writer else None)
  |> List.sort_uniq Int.compare

(* Transactions concurrent with a snapshot: every live transaction,
   plus retained committed ones whose commit came after the snapshot
   was pinned. Only concurrent transactions can be linked by the
   vulnerable rw-antidependency edges of the Fekete condition. *)
let concurrent st ~snap ~excluding =
  Hashtbl.fold
    (fun id t acc -> if id = excluding then acc else t :: acc)
    st.live []
  @ List.filter
      (fun t ->
        t.id <> excluding
        && match t.commit_ts with Some c -> c > snap | None -> false)
      st.retained

let min_live_snapshot st =
  Hashtbl.fold
    (fun _ t acc ->
      match acc with None -> Some t.snap | Some s -> Some (min s t.snap))
    st.live None

(* Garbage collection: once no live snapshot can reach a version (a
   newer committed version is itself at or below every live snapshot),
   drop it; retained committed transaction records go the same way once
   nothing live is concurrent with them.

   With no live snapshot at all, [s_min] falls back to the current
   clock. That must never empty a chain: the next [begin_txn] pins
   [snap = clock], and its reads walk the chain for the newest version
   at or below that. Chains are newest-first and every committed
   version satisfies [ts <= clock], so [keep] always retains the head
   version per variable — exactly the one a post-prune snapshot
   reads. *)
let prune st =
  let s_min =
    match min_live_snapshot st with Some s -> s | None -> st.clock
  in
  Hashtbl.iter
    (fun _ r ->
      let rec keep = function
        | [] -> []
        | v :: rest ->
          if v.ts <= s_min then [ v ] (* newest reachable; older ones dead *)
          else v :: keep rest
      in
      r := keep !r)
    st.chains;
  st.retained <-
    List.filter
      (fun t -> match t.commit_ts with Some c -> c > s_min | None -> false)
      st.retained

let commit st t =
  st.clock <- st.clock + 1;
  let ts = st.clock in
  t.commit_ts <- Some ts;
  (* newest buffered value per variable wins (writes is newest-first) *)
  let seen = ref Names.Vset.empty in
  List.iter
    (fun (x, value) ->
      if not (Names.Vset.mem x !seen) then begin
        seen := Names.Vset.add x !seen;
        let r =
          match Hashtbl.find_opt st.chains x with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add st.chains x r;
            r
        in
        r := { value; writer = t.id; ts } :: !r
      end)
    t.writes;
  Hashtbl.remove st.live t.id;
  st.retained <- t :: st.retained;
  prune st;
  ts

let abort st t =
  Hashtbl.remove st.live t.id;
  prune st
