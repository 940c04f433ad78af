type counters = {
  submits : int;
  grants : int;
  delays : int;
  restarts : int;
  deadlocks : int;
  commits : int;
  waiting : int;
  refusals : int;
}

(* Per-transaction FIFO of submission timestamps: grants pop in order,
   aborts leave pending submissions in place (the replayed steps are
   re-submitted as fresh events). Over a complete trace the matched
   total is the driver's [waiting], which keeps it as one running sum. *)
let submit_queues () : (int, float Queue.t) Hashtbl.t = Hashtbl.create 16

let queue_of qs tx =
  match Hashtbl.find_opt qs tx with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add qs tx q;
    q

let fold_grants events ~on_grant =
  let qs = submit_queues () in
  List.iter
    (fun (ts, ev) ->
      match (ev : Event.t) with
      | Submitted { tx; _ } -> Queue.add ts (queue_of qs tx)
      | Granted { tx; _ } -> (
        (* a grant with no recorded submission means the trace starts
           mid-stream (ring truncation): no waiting observation *)
        match Queue.take_opt (queue_of qs tx) with
        | Some s -> on_grant (int_of_float (ts -. s))
        | None -> ())
      | _ -> ())
    events

let counters events =
  let c =
    ref
      {
        submits = 0;
        grants = 0;
        delays = 0;
        restarts = 0;
        deadlocks = 0;
        commits = 0;
        waiting = 0;
        refusals = 0;
      }
  in
  let qs = submit_queues () in
  List.iter
    (fun (ts, ev) ->
      match (ev : Event.t) with
      | Submitted { tx; _ } ->
        Queue.add ts (queue_of qs tx);
        c := { !c with submits = !c.submits + 1 }
      | Granted { tx; _ } ->
        let w =
          match Queue.take_opt (queue_of qs tx) with
          | Some s -> int_of_float (ts -. s)
          | None -> 0 (* submission truncated away by the ring *)
        in
        c := { !c with grants = !c.grants + 1; waiting = !c.waiting + w }
      | Delayed _ -> c := { !c with delays = !c.delays + 1 }
      | Aborted { reason; _ } ->
        c :=
          {
            !c with
            restarts = !c.restarts + 1;
            deadlocks =
              (!c.deadlocks + match reason with
               | Event.Deadlock -> 1
               | Event.Scheduler_abort -> 0);
          }
      | Committed _ -> c := { !c with commits = !c.commits + 1 }
      | Cycle_refused _ -> c := { !c with refusals = !c.refusals + 1 }
      | Executed _ | Restarted _ | Edge_added _ | Commute_pass _
      | Lock_acquired _ | Lock_released _ | Wound _ | Ts_refused _
      | Shard_routed _ | Snapshot_taken _ | Version_read _
      | Version_installed _ | Ww_refused _ | Pivot_refused _ | Twopc_sent _
      | Twopc_delivered _ | Twopc_decided _ | Twopc_timeout _
      | Node_crashed _ | Node_recovered _ -> ())
    events;
  !c

let zero_delay c = c.delays = 0 && c.restarts = 0

let spans ~n events =
  let sp = Span.create n in
  List.iter
    (fun (ts, ev) ->
      match (ev : Event.t) with
      | Submitted { tx; _ } ->
        (* only the first submission starts the clock; later arrivals
           leave the current phase alone *)
        if not (Span.started sp tx) then Span.enter sp tx ~now:ts Scheduling
      | Delayed { tx; _ } -> Span.enter sp tx ~now:ts Waiting
      | Granted { tx; _ } -> Span.enter sp tx ~now:ts Executing
      | Executed { tx; _ } -> Span.enter sp tx ~now:ts Scheduling
      | Aborted { tx; _ } -> Span.enter sp tx ~now:ts Scheduling
      | Committed { tx } ->
        (* a commit with no prior lifecycle event (truncated trace)
           carries no span information *)
        if Span.started sp tx then Span.finish sp tx ~now:ts
      | Restarted _ | Edge_added _ | Cycle_refused _ | Commute_pass _ | Lock_acquired _
      | Lock_released _ | Wound _ | Ts_refused _ | Shard_routed _
      | Snapshot_taken _ | Version_read _ | Version_installed _
      | Ww_refused _ | Pivot_refused _ | Twopc_sent _ | Twopc_delivered _
      | Twopc_decided _ | Twopc_timeout _ | Node_crashed _
      | Node_recovered _ -> ())
    events;
  sp

type history = {
  steps : (int * int) list;
  commits : int list;
  truncated : bool;
}

let history events =
  (* Per-transaction pending steps of the current incarnation, newest
     first, each stamped with a global sequence number so the committed
     steps can be merged back into execution order. *)
  let pending : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  let pending_of tx =
    match Hashtbl.find_opt pending tx with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add pending tx r;
      r
  in
  let seq = ref 0 in
  let committed = ref [] in
  let commits = ref [] in
  let truncated = ref false in
  List.iter
    (fun (_, ev) ->
      match (ev : Event.t) with
      | Executed { tx; idx } ->
        let p = pending_of tx in
        (* a complete incarnation executes steps 0, 1, 2, ... in order;
           a gap means the ring dropped the incarnation's head *)
        if List.length !p <> idx then truncated := true;
        p := (!seq, idx) :: !p;
        incr seq
      | Aborted { tx; _ } -> (pending_of tx) := []
      | Committed { tx } ->
        let p = pending_of tx in
        if !p = [] then truncated := true
        else begin
          List.iter (fun (s, idx) -> committed := (s, tx, idx) :: !committed) !p;
          p := [];
          commits := tx :: !commits
        end
      | Submitted _ | Delayed _ | Granted _ | Restarted _ | Edge_added _
      | Cycle_refused _ | Commute_pass _ | Lock_acquired _ | Lock_released _ | Wound _
      | Ts_refused _ | Shard_routed _ | Snapshot_taken _ | Version_read _
      | Version_installed _ | Ww_refused _ | Pivot_refused _ | Twopc_sent _
      | Twopc_delivered _ | Twopc_decided _ | Twopc_timeout _
      | Node_crashed _ | Node_recovered _ -> ())
    events;
  {
    steps =
      List.map
        (fun (_, tx, idx) -> (tx, idx))
        (List.sort compare !committed);
    commits = List.sort_uniq compare !commits;
    truncated = !truncated;
  }

type mv_access = { write : bool; var : string; value : int }

type mv_history = {
  recorded : bool;
  txns : (int * mv_access list) list;
  mv_commits : int list;
  mv_truncated : bool;
}

let mv_history events =
  let recorded = ref false in
  let pending : (int, mv_access list ref) Hashtbl.t = Hashtbl.create 16 in
  let pending_of tx =
    match Hashtbl.find_opt pending tx with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add pending tx r;
      r
  in
  let committed = ref [] in
  let commits = ref [] in
  let truncated = ref false in
  List.iter
    (fun (_, ev) ->
      match (ev : Event.t) with
      | Version_read { tx; var; value } ->
        recorded := true;
        let p = pending_of tx in
        p := { write = false; var; value } :: !p
      | Version_installed { tx; var; value } ->
        recorded := true;
        let p = pending_of tx in
        p := { write = true; var; value } :: !p
      | Aborted { tx; _ } -> (pending_of tx) := []
      | Committed { tx } ->
        if !recorded then begin
          let p = pending_of tx in
          (* every multi-version step reads, so a committed transaction
             with no recorded accesses means the ring ate its head *)
          if !p = [] then truncated := true
          else begin
            committed := (tx, List.rev !p) :: !committed;
            p := [];
            commits := tx :: !commits
          end
        end
      | Submitted _ | Delayed _ | Granted _ | Executed _ | Restarted _
      | Edge_added _ | Cycle_refused _ | Commute_pass _ | Lock_acquired _ | Lock_released _
      | Wound _ | Ts_refused _ | Shard_routed _ | Snapshot_taken _
      | Ww_refused _ | Pivot_refused _ | Twopc_sent _ | Twopc_delivered _
      | Twopc_decided _ | Twopc_timeout _ | Node_crashed _
      | Node_recovered _ -> ())
    events;
  {
    recorded = !recorded;
    txns = List.sort compare !committed;
    mv_commits = List.sort_uniq compare !commits;
    mv_truncated = !truncated;
  }

let blocking_windows events =
  (* In-doubt start per (tx, node): a participant enters the window when
     its yes-vote leaves (the forced log write and the send share the
     handler step), and leaves it at its own decision event. First vote
     opens, first decision closes; a later round of the same transaction
     (after an abort + restart) opens a fresh window and the maximum is
     kept. *)
  let doubt : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let acc : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ts, ev) ->
      match (ev : Event.t) with
      | Twopc_sent { tx; src; msg = Vote true; _ } ->
        if not (Hashtbl.mem doubt (tx, src)) then Hashtbl.add doubt (tx, src) ts
      | Twopc_decided { tx; node; _ } -> (
        match Hashtbl.find_opt doubt (tx, node) with
        | None -> ()
        | Some t0 ->
          Hashtbl.remove doubt (tx, node);
          let w = ts -. t0 in
          let cur =
            match Hashtbl.find_opt acc tx with Some c -> c | None -> 0.
          in
          if w > cur then Hashtbl.replace acc tx w)
      | _ -> ())
    events;
  List.sort compare (Hashtbl.fold (fun tx w l -> (tx, w) :: l) acc [])

let wait_histogram events =
  let h = Hist.create () in
  fold_grants events ~on_grant:(Hist.add h);
  h
