open Core

(* The wait-for relation among blocked transactions, each waiting for
   the holder of the first lock it lacks. A victim is a member of a
   cycle, the one earliest in [blocked], which the driver orders
   youngest-first (wound-wait seniority), among the members that are
   their cycle predecessor's only blocker. Under 2PL every member is;
   a 2PL' request can lack several locks, and aborting a member the
   predecessor also waits on elsewhere lets nobody through: its replay
   takes its locks straight back and the stall recurs. With no cycle,
   the first blocked transaction. *)
let wait_for_victim ~blockers blocked =
  match blocked with
  | [] -> None
  | first :: _ ->
    let txs = Array.of_list blocked in
    let idx = List.mapi (fun k i -> (i, k)) blocked in
    let g = Digraph.create (Array.length txs) in
    Array.iteri
      (fun k i ->
        match blockers i with
        | j :: _ -> (
          match List.assoc_opt j idx with
          | Some k' -> Digraph.add_edge g k k'
          | None -> ())
        | [] -> ())
      txs;
    (match Digraph.find_cycle g with
    | Some (c :: _ as cyc) ->
      let rec sole = function
        | p :: (v :: _ as rest) ->
          let only = List.for_all (Int.equal txs.(v)) (blockers txs.(p)) in
          if only then v :: sole rest else sole rest
        | [ _ ] | [] -> []
      in
      let members = match sole (cyc @ [ c ]) with [] -> cyc | vs -> vs in
      Some txs.(List.fold_left min max_int members)
    | Some [] | None -> Some first)

let create ?(sink = Obs.Sink.null) ~policy ~syntax () =
  let lrs = Locking.Locked.machine (policy.Locking.Policy.apply syntax) in
  let blockers = Locking.Lrs.blockers lrs in
  let attempt (id : Names.step_id) =
    if blockers id.Names.tx = [] then Scheduler.Grant else Scheduler.Delay
  in
  let record tx s =
    if Obs.Sink.on sink then
      match s with
      | Locking.Lrs.Lock (lock, _) ->
        Obs.Sink.record sink (Obs.Event.Lock_acquired { tx; lock })
      | Locking.Lrs.Unlock lock ->
        Obs.Sink.record sink (Obs.Event.Lock_released { tx; lock })
      | Locking.Lrs.Act _ -> ()
  in
  let commit (id : Names.step_id) =
    let i = id.Names.tx in
    match Locking.Lrs.next_action lrs i with
    | Some id' when Names.equal_step id id' ->
      Locking.Lrs.advance lrs i (record i)
    | Some _ | None -> invalid_arg "Tpl_sched: commit out of order"
  in
  let victim blocked =
    let v = wait_for_victim ~blockers blocked in
    (match v with
    | Some victim when Obs.Sink.on sink ->
      Obs.Sink.record sink (Obs.Event.Wound { victim })
    | Some _ | None -> ());
    v
  in
  Scheduler.make
    ~name:("LRS[" ^ policy.Locking.Policy.name ^ "]")
    ~attempt ~commit ~on_abort:(Locking.Lrs.reset lrs) ~victim ()

let create_2pl ?sink ~syntax () =
  create ?sink ~policy:Locking.Two_phase.policy ~syntax ()
