type fault =
  | Crash of { node : int; at_input : int; repair : float }
  | Slow_link of { src : int; dst : int; extra : float }
  | Vote_no of { node : int }

type variant = Correct | Forget_log_on_recover | Presume_commit_on_timeout

type config = {
  delay : float;
  jitter : float;
  t_prepare : float;
  t_vote : float;
  t_decision : float;
  t_ack : float;
  variant : variant;
  budget : int;
}

let default =
  {
    delay = 1.0;
    jitter = 0.0;
    t_prepare = 8.0;
    t_vote = 8.0;
    t_decision = 6.0;
    t_ack = 6.0;
    variant = Correct;
    budget = 100_000;
  }

type record = {
  tx : int;
  coord : int;
  parts : int list;
  faults : fault list;
  votes : (int * bool) list;
  decisions : (float * int * bool) list;
  outcome : bool option;
  quiescent : bool;
  decided_at : float;
  finished_at : float;
  blocking : float;
  msgs : int;
  crashes : int;
  node_inputs : int array;
  events : (float * Obs.Event.t) list;
}

(* The wire vocabulary. [Start] is the round kick-off (a coordinator
   self-send, so that "coordinator crashed before doing anything" is a
   reachable input-indexed placement); it is internal and not traced. *)
type msg = Start | Prepare | Vote of bool | Decision of bool | Ack | Decision_req

let payload = function
  | Start -> None
  | Prepare -> Some Obs.Event.Prepare
  | Vote v -> Some (Obs.Event.Vote v)
  | Decision d -> Some (Obs.Event.Decision d)
  | Ack -> Some Obs.Event.Ack
  | Decision_req -> Some Obs.Event.Decision_req

(* timer tags *)
let tag_prepare = 0
let tag_vote = 1
let tag_decision = 2
let tag_ack = 3

let timer_name = function
  | 0 -> "prepare"
  | 1 -> "vote"
  | 2 -> "decision"
  | _ -> "ack"

let round ?(sink = Obs.Sink.null) ?(at = 0.) cfg ~nodes ~coord ~parts ~tx ~seed
    ~faults () =
  if coord < 0 || coord >= nodes then invalid_arg "Twopc.round: coord";
  List.iter
    (fun p ->
      if p < 0 || p >= nodes || p = coord then
        invalid_arg "Twopc.round: participant out of range")
    parts;
  (* jitter is the only reader: a round without it builds no state *)
  let rng = lazy (Random.State.make [| 0x27C0; seed; tx |]) in
  let vote_no = Array.make nodes false in
  let extra = Hashtbl.create 4 in
  let crashes =
    List.filter_map
      (function
        | Crash { node; at_input; repair } -> Some (node, at_input, repair)
        | Slow_link { src; dst; extra = e } ->
          Hashtbl.replace extra (src, dst) e;
          None
        | Vote_no { node } ->
          if node >= 0 && node < nodes then vote_no.(node) <- true;
          None)
      faults
  in
  let delay ~src ~dst =
    cfg.delay
    +. (match Hashtbl.find_opt extra (src, dst) with Some e -> e | None -> 0.)
    +.
    if cfg.jitter > 0. then Random.State.float (Lazy.force rng) cfg.jitter
    else 0.
  in
  (* persistent state: survives crashes (the per-node log) *)
  let log_vote = Array.make nodes false in
  let log_decision = Array.make nodes None in
  let log_end = ref false in
  (* volatile state: dropped by [on_crash] *)
  let decided = Array.make nodes None in
  let got_prepare = Array.make nodes false in
  let tally = Array.make nodes None in
  let acked = Array.make nodes false in
  (* measurements (outside the failure model) *)
  let sent_vote = Array.make nodes None in
  let vote_time = Array.make nodes nan in
  let blocking = ref 0. in
  let decisions = ref [] in
  let events = ref [] in
  let emit t ev =
    events := (at +. t, ev) :: !events;
    if Obs.Sink.on sink then Obs.Sink.record_at sink (at +. t) ev
  in
  (* A fresh decision: recorded, traced, and the closing edge of the
     node's in-doubt window. Reloading a logged decision after recovery
     goes through [decided.(node) <- ...] directly instead — the
     decision was already made and recorded. *)
  let decide net node commit =
    match decided.(node) with
    | Some d when d = commit -> ()
    | _ ->
      decided.(node) <- Some commit;
      let t = Net.now net in
      decisions := (t, node, commit) :: !decisions;
      emit t (Obs.Event.Twopc_decided { tx; node; commit });
      if node <> coord && not (Float.is_nan vote_time.(node)) then begin
        let w = t -. vote_time.(node) in
        if w > !blocking then blocking := w;
        vote_time.(node) <- nan
      end
  in
  let send_msg net src dst m =
    (match payload m with
    | Some pl ->
      emit (Net.now net) (Obs.Event.Twopc_sent { tx; src; dst; msg = pl })
    | None -> ());
    Net.send net ~src ~dst m
  in
  let vote net node v =
    if sent_vote.(node) = None then sent_vote.(node) <- Some v;
    if v then begin
      (* forced log write, then the send — one atomic handler step *)
      log_vote.(node) <- true;
      vote_time.(node) <- Net.now net;
      send_msg net node coord (Vote true);
      Net.set_timer net ~node ~tag:tag_decision ~after:cfg.t_decision
    end
    else begin
      send_msg net node coord (Vote false);
      (* a no-voter aborts unilaterally; presumed abort needs no log *)
      decide net node false
    end
  in
  let broadcast net d = List.iter (fun p -> send_msg net coord p (Decision d)) parts in
  let coord_msg net src m =
    match m with
    | Start ->
      List.iter (fun p -> send_msg net coord p Prepare) parts;
      Net.set_timer net ~node:coord ~tag:tag_vote ~after:cfg.t_vote
    | Vote v -> (
      tally.(src) <- Some v;
      match decided.(coord) with
      | None ->
        if not v then begin
          (* presumed abort: decide and broadcast without logging *)
          decide net coord false;
          broadcast net false
        end
        else if List.for_all (fun p -> tally.(p) = Some true) parts then begin
          log_decision.(coord) <- Some true;
          decide net coord true;
          broadcast net true;
          Net.set_timer net ~node:coord ~tag:tag_ack ~after:cfg.t_ack
        end
      | Some d ->
        (* a straggler vote after the outcome: answer it directly so a
           yes-voter that missed the broadcast is not left in doubt *)
        if v then send_msg net coord src (Decision d))
    | Ack ->
      acked.(src) <- true;
      if decided.(coord) = Some true && List.for_all (fun p -> acked.(p)) parts
      then log_end := true
    | Decision_req -> (
      match (log_decision.(coord), decided.(coord)) with
      | Some d, _ | None, Some d -> send_msg net coord src (Decision d)
      | None, None -> () (* undecided; the requester's timer re-polls *))
    | Prepare | Decision _ -> ()
  in
  let part_msg net node _src m =
    match m with
    | Prepare -> (
      got_prepare.(node) <- true;
      match decided.(node) with
      | Some _ ->
        (* already presumed abort (prepare timeout beat a slow link) *)
        if sent_vote.(node) = None then sent_vote.(node) <- Some false;
        send_msg net node coord (Vote false)
      | None -> vote net node (not vote_no.(node)))
    | Decision d ->
      (match decided.(node) with
      | None ->
        log_decision.(node) <- Some d;
        decide net node d
      | Some _ -> ());
      if d then send_msg net node coord Ack
    | Start | Vote _ | Ack | Decision_req -> ()
  in
  let on_msg net ~node ~src m =
    (match payload m with
    | Some pl ->
      emit (Net.now net)
        (Obs.Event.Twopc_delivered { tx; src; dst = node; msg = pl })
    | None -> ());
    if node = coord then coord_msg net src m else part_msg net node src m
  in
  let on_timer net ~node ~tag =
    let timeout () =
      emit (Net.now net)
        (Obs.Event.Twopc_timeout { tx; node; timer = timer_name tag })
    in
    if node = coord then begin
      if tag = tag_vote && decided.(coord) = None then begin
        timeout ();
        decide net coord false;
        broadcast net false
      end
      else if
        tag = tag_ack && decided.(coord) = Some true && not !log_end
        && not (List.for_all (fun p -> acked.(p)) parts)
      then begin
        timeout ();
        List.iter
          (fun p -> if not acked.(p) then send_msg net coord p (Decision true))
          parts;
        Net.set_timer net ~node:coord ~tag:tag_ack ~after:cfg.t_ack
      end
    end
    else if tag = tag_prepare then begin
      if (not got_prepare.(node)) && decided.(node) = None then begin
        timeout ();
        (* never asked to vote: unilateral presumed abort *)
        decide net node false
      end
    end
    else if tag = tag_decision then
      if log_vote.(node) && decided.(node) = None then begin
        timeout ();
        match cfg.variant with
        | Presume_commit_on_timeout ->
          (* deliberately broken: unilateral commit while in doubt *)
          decide net node true
        | Correct | Forget_log_on_recover ->
          send_msg net node coord Decision_req;
          Net.set_timer net ~node ~tag:tag_decision ~after:cfg.t_decision
      end
  in
  let on_crash net ~node =
    emit (Net.now net) (Obs.Event.Node_crashed { tx; node });
    decided.(node) <- None;
    got_prepare.(node) <- false;
    if node = coord then begin
      Array.fill tally 0 nodes None;
      Array.fill acked 0 nodes false
    end
  in
  let on_recover net ~node =
    emit (Net.now net) (Obs.Event.Node_recovered { tx; node });
    if cfg.variant = Forget_log_on_recover then begin
      log_vote.(node) <- false;
      log_decision.(node) <- None;
      if node = coord then log_end := false
    end;
    if node = coord then begin
      match log_decision.(coord) with
      | Some d ->
        decided.(coord) <- Some d;
        if d && not !log_end then begin
          (* volatile acks are gone: re-broadcast until acked again *)
          broadcast net true;
          Net.set_timer net ~node:coord ~tag:tag_ack ~after:cfg.t_ack
        end
      | None ->
        (* no commit record: presume abort, and broadcast it so in-doubt
           participants are released without waiting for their polls *)
        decide net coord false;
        broadcast net false
    end
    else begin
      match log_decision.(node) with
      | Some d -> decided.(node) <- Some d
      | None ->
        if log_vote.(node) then begin
          (* in doubt: only the coordinator can say *)
          send_msg net node coord Decision_req;
          Net.set_timer net ~node ~tag:tag_decision ~after:cfg.t_decision
        end
        else decide net node false
    end
  in
  let handlers = { Net.on_msg; on_timer; on_crash; on_recover } in
  let net = Net.create ~nodes ~delay ~crashes ~handlers () in
  (* initial state: participants arm their prepare timeouts, the
     coordinator kicks itself off *)
  List.iter
    (fun p -> Net.set_timer net ~node:p ~tag:tag_prepare ~after:cfg.t_prepare)
    parts;
  Net.send net ~src:coord ~dst:coord Start;
  let quiescent = Net.run ~budget:cfg.budget net = `Quiescent in
  let decisions = List.rev !decisions in
  let decided_at =
    match List.find_opt (fun (_, n, _) -> n = coord) decisions with
    | Some (t, _, _) -> t
    | None -> nan
  in
  {
    tx;
    coord;
    parts;
    faults;
    votes =
      List.filter_map
        (fun p ->
          match sent_vote.(p) with Some v -> Some (p, v) | None -> None)
        parts;
    decisions;
    outcome = decided.(coord);
    quiescent;
    decided_at;
    finished_at = Net.now net;
    blocking = !blocking;
    msgs = Net.delivered net;
    crashes = Net.crashes_triggered net;
    node_inputs = Array.init nodes (Net.steps net);
    events = List.rev !events;
  }

(* ---------- AC1-AC5 ---------- *)

type violation = { ac : int; detail : string }

let check r =
  let vs = ref [] in
  let add ac detail = vs := { ac; detail } :: !vs in
  let involved = r.parts @ [ r.coord ] in
  let commits = List.filter (fun (_, _, d) -> d) r.decisions in
  let aborts = List.filter (fun (_, _, d) -> not d) r.decisions in
  (match (commits, aborts) with
  | (_, c, _) :: _, (_, a, _) :: _ ->
    add 1
      (Printf.sprintf "node %d decided commit but node %d decided abort" c a)
  | _ -> ());
  List.iter
    (fun node ->
      let mine = List.filter (fun (_, n, _) -> n = node) r.decisions in
      if
        List.exists (fun (_, _, d) -> d) mine
        && List.exists (fun (_, _, d) -> not d) mine
      then add 2 (Printf.sprintf "node %d reversed its decision" node))
    involved;
  if commits <> [] then
    List.iter
      (fun p ->
        match List.assoc_opt p r.votes with
        | Some true -> ()
        | Some false ->
          add 3 (Printf.sprintf "commit decided but node %d voted no" p)
        | None ->
          add 3 (Printf.sprintf "commit decided but node %d never voted" p))
      r.parts;
  if r.faults = [] && r.outcome <> Some true then
    add 4 "fault-free all-yes round did not commit";
  if not r.quiescent then add 5 "round did not quiesce within budget"
  else
    List.iter
      (fun node ->
        if not (List.exists (fun (_, n, _) -> n = node) r.decisions) then
          add 5 (Printf.sprintf "node %d never decided" node))
      involved;
  List.rev !vs

(* ---------- exhaustive single-fault micro-universe ---------- *)

let universe ?repairs cfg ~n_parts ~seed =
  let nodes = n_parts + 1 and coord = n_parts in
  let parts = List.init n_parts (fun p -> p) in
  let run faults =
    let r = round cfg ~nodes ~coord ~parts ~tx:0 ~seed ~faults () in
    (faults, r, check r)
  in
  let base = run [] in
  let _, br, _ = base in
  let repairs =
    match repairs with
    | Some rs -> rs
    | None ->
      let longest =
        List.fold_left max 0.
          [ cfg.t_prepare; cfg.t_vote; cfg.t_decision; cfg.t_ack ]
      in
      (* one repair inside every timeout, one past all of them: both the
         "came right back" and the "everyone timed out first" schedules *)
      [ 2.5 *. cfg.delay; (3. *. longest) +. cfg.delay ]
  in
  let placements = ref [] in
  List.iter
    (fun node ->
      for s = 0 to br.node_inputs.(node) - 1 do
        List.iter
          (fun repair ->
            placements := [ Crash { node; at_input = s; repair } ] :: !placements)
          repairs
      done)
    (coord :: parts);
  List.iter
    (fun p -> placements := [ Vote_no { node = p } ] :: !placements)
    parts;
  List.iter
    (fun p ->
      placements :=
        [ Slow_link { src = coord; dst = p; extra = cfg.t_prepare +. 2. } ]
        :: [ Slow_link { src = p; dst = coord; extra = cfg.t_vote +. 2. } ]
        :: !placements)
    parts;
  base :: List.rev_map run !placements

(* ---------- printing & witnesses ---------- *)

let pp_fault ppf = function
  | Crash { node; at_input; repair } ->
    Format.fprintf ppf "crash(node=%d,at=%d,repair=%g)" node at_input repair
  | Slow_link { src; dst; extra } ->
    Format.fprintf ppf "slow(%d->%d,+%g)" src dst extra
  | Vote_no { node } -> Format.fprintf ppf "vote-no(node=%d)" node

let pp_violation ppf { ac; detail } =
  Format.fprintf ppf "AC%d: %s" ac detail

let witness r violations =
  let b = Buffer.create 1024 in
  let bf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bf "2PC round tx=%d coord=%d parts=[%s] faults=[%s]\n" r.tx r.coord
    (String.concat "," (List.map string_of_int r.parts))
    (String.concat "; "
       (List.map (Format.asprintf "%a" pp_fault) r.faults));
  List.iter
    (fun v -> bf "  violated %s\n" (Format.asprintf "%a" pp_violation v))
    violations;
  bf "  outcome=%s quiescent=%b blocking=%g msgs=%d crashes=%d\n"
    (match r.outcome with
    | Some true -> "commit"
    | Some false -> "abort"
    | None -> "none")
    r.quiescent r.blocking r.msgs r.crashes;
  List.iter
    (fun (t, ev) -> bf "  %8.2f  %s\n" t (Obs.Event.to_string ev))
    r.events;
  Buffer.contents b

(* ---------- commit service for the sharded engine ---------- *)

type totals = {
  rounds : int;
  committed : int;
  aborted : int;
  latency_sum : float;
  blocking_sum : float;
  blocking_max : float;
  total_msgs : int;
  total_crashes : int;
}

type service = {
  sink : Obs.Sink.t;
  cfg : config;
  crash_rate : float;
  slow_rate : float;
  rng : Random.State.t;
  shards : int;
  mutable clock : float;
  mutable acc : totals;
}

let service ?(sink = Obs.Sink.null) ?(config = default) ?(crash_rate = 0.)
    ?(slow_rate = 0.) ?(seed = 0) ~shards () =
  {
    sink;
    cfg = config;
    crash_rate;
    slow_rate;
    rng = Random.State.make [| 0x27C5; seed |];
    shards;
    clock = 0.;
    acc =
      {
        rounds = 0;
        committed = 0;
        aborted = 0;
        latency_sum = 0.;
        blocking_sum = 0.;
        blocking_max = 0.;
        total_msgs = 0;
        total_crashes = 0;
      };
  }

let sample_faults svc ~coord ~parts =
  if svc.crash_rate = 0. && svc.slow_rate = 0. then []
  else begin
    let fs = ref [] in
    List.iter
      (fun node ->
        if Random.State.float svc.rng 1.0 < svc.crash_rate then begin
          let at_input = Random.State.int svc.rng 6 in
          let repair =
            svc.cfg.delay *. (2. +. Random.State.float svc.rng 30.)
          in
          fs := Crash { node; at_input; repair } :: !fs
        end)
      (coord :: parts);
    List.iter
      (fun p ->
        if Random.State.float svc.rng 1.0 < svc.slow_rate then begin
          let extra =
            svc.cfg.t_decision
            +. Random.State.float svc.rng (2. *. svc.cfg.t_decision)
          in
          fs :=
            (if Random.State.bool svc.rng then
               Slow_link { src = coord; dst = p; extra }
             else Slow_link { src = p; dst = coord; extra })
            :: !fs
        end)
      parts;
    !fs
  end

let commit svc ~tx ~shards =
  let coord = svc.shards in
  let nodes = svc.shards + 1 in
  let faults = sample_faults svc ~coord ~parts:shards in
  let at =
    max svc.clock (if Obs.Sink.on svc.sink then svc.sink.Obs.Sink.now else 0.)
  in
  let r =
    round ~sink:svc.sink ~at svc.cfg ~nodes ~coord ~parts:shards ~tx
      ~seed:(Random.State.int svc.rng 0x3FFFFFFF)
      ~faults ()
  in
  svc.clock <- at +. r.finished_at;
  let ok = r.outcome = Some true in
  let a = svc.acc in
  svc.acc <-
    {
      rounds = a.rounds + 1;
      committed = (a.committed + if ok then 1 else 0);
      aborted = (a.aborted + if ok then 0 else 1);
      latency_sum =
        (a.latency_sum
        +. if Float.is_nan r.decided_at then r.finished_at else r.decided_at);
      blocking_sum = a.blocking_sum +. r.blocking;
      blocking_max = Float.max a.blocking_max r.blocking;
      total_msgs = a.total_msgs + r.msgs;
      total_crashes = a.total_crashes + r.crashes;
    };
  ok

let totals svc = svc.acc
