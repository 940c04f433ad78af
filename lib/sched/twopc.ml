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

(* Constant messages are static data: sending one allocates nothing. *)
let decision_msg d = if d then Decision true else Decision false

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

(* A round's state, one slot per node. A decision or vote that may be
   absent is an int: [none], 0 (abort / no) or 1 (commit / yes). *)
let none = -1

type state = {
  cfg : config;
  tx : int;
  coord : int;
  parts : int array;
  sink : Obs.Sink.t;
  at : float;
  keep : bool;  (* collect [events] and [decisions] for a [record] *)
  mutable events : (float * Obs.Event.t) list;  (* newest first *)
  mutable decisions : (float * int * bool) list;  (* newest first *)
  jitter : Random.State.t option;  (* only with [cfg.jitter > 0.] *)
  extra : float array;
      (* slow-link extra delay at [src * nodes + dst]; empty unless a
         [Slow_link] fault is in the plan *)
  vote_no : bool array;
  (* persistent state: survives crashes (the per-node log) *)
  log_vote : bool array;
  log_decision : int array;
  mutable log_end : bool;
  (* volatile state: dropped by [on_crash] *)
  decided : int array;
  got_prepare : bool array;
  tally : int array;
  acked : bool array;
  (* measurements (outside the failure model) *)
  sent_vote : int array;
  vote_time : float array;
  mutable blocking : float;
  mutable decided_at : float;  (* the coordinator's first decision *)
}

let nodes st = Array.length st.decided

(* Events are built only when someone reads them: the record being
   kept, or the sink. *)
let tracing st = st.keep || Obs.Sink.on st.sink

let emit st t ev =
  let t = st.at +. t in
  if st.keep then st.events <- (t, ev) :: st.events;
  if Obs.Sink.on st.sink then Obs.Sink.record_at st.sink t ev

let delay st ~src ~dst =
  st.cfg.delay
  +. (if Array.length st.extra = 0 then 0.
      else st.extra.((src * nodes st) + dst))
  +.
  match st.jitter with
  | Some rng -> Random.State.float rng st.cfg.jitter
  | None -> 0.

let rec all_yes st i =
  i = Array.length st.parts
  || (st.tally.(st.parts.(i)) = 1 && all_yes st (i + 1))

let rec all_acked st i =
  i = Array.length st.parts || (st.acked.(st.parts.(i)) && all_acked st (i + 1))

(* A fresh decision: recorded, traced, and the closing edge of the
   node's in-doubt window. Reloading a logged decision after recovery
   sets [decided.(node)] directly instead — the decision was already
   made and recorded. *)
let decide st net node commit =
  let d = Bool.to_int commit in
  if st.decided.(node) <> d then begin
    st.decided.(node) <- d;
    let t = Net.now net in
    if st.keep then st.decisions <- (t, node, commit) :: st.decisions;
    if node = st.coord && Float.is_nan st.decided_at then st.decided_at <- t;
    if tracing st then
      emit st t (Obs.Event.Twopc_decided { tx = st.tx; node; commit });
    if node <> st.coord && not (Float.is_nan st.vote_time.(node)) then begin
      let w = t -. st.vote_time.(node) in
      if w > st.blocking then st.blocking <- w;
      st.vote_time.(node) <- nan
    end
  end

let send st net src dst m =
  (if tracing st then
     match payload m with
     | Some pl ->
       emit st (Net.now net)
         (Obs.Event.Twopc_sent { tx = st.tx; src; dst; msg = pl })
     | None -> ());
  Net.send net ~src ~dst m

let timeout st net node tag =
  if tracing st then
    emit st (Net.now net)
      (Obs.Event.Twopc_timeout { tx = st.tx; node; timer = timer_name tag })

let broadcast st net d =
  for i = 0 to Array.length st.parts - 1 do
    send st net st.coord st.parts.(i) (decision_msg d)
  done

let vote st net node v =
  if st.sent_vote.(node) = none then st.sent_vote.(node) <- Bool.to_int v;
  if v then begin
    (* forced log write, then the send — one atomic handler step *)
    st.log_vote.(node) <- true;
    st.vote_time.(node) <- Net.now net;
    send st net node st.coord (Vote true);
    Net.set_timer net ~node ~tag:tag_decision ~after:st.cfg.t_decision
  end
  else begin
    send st net node st.coord (Vote false);
    (* a no-voter aborts unilaterally; presumed abort needs no log *)
    decide st net node false
  end

let coord_msg st net src m =
  let coord = st.coord in
  match m with
  | Start ->
    for i = 0 to Array.length st.parts - 1 do
      send st net coord st.parts.(i) Prepare
    done;
    Net.set_timer net ~node:coord ~tag:tag_vote ~after:st.cfg.t_vote
  | Vote v ->
    st.tally.(src) <- Bool.to_int v;
    let d = st.decided.(coord) in
    if d = none then begin
      if not v then begin
        (* presumed abort: decide and broadcast without logging *)
        decide st net coord false;
        broadcast st net false
      end
      else if all_yes st 0 then begin
        st.log_decision.(coord) <- 1;
        decide st net coord true;
        broadcast st net true;
        Net.set_timer net ~node:coord ~tag:tag_ack ~after:st.cfg.t_ack
      end
    end
    else if v then
      (* a straggler vote after the outcome: answer it directly so a
         yes-voter that missed the broadcast is not left in doubt *)
      send st net coord src (decision_msg (d = 1))
  | Ack ->
    st.acked.(src) <- true;
    if st.decided.(coord) = 1 && all_acked st 0 then st.log_end <- true
  | Decision_req ->
    let logged = st.log_decision.(coord) in
    let d = if logged <> none then logged else st.decided.(coord) in
    (* undecided: the requester's timer re-polls *)
    if d <> none then send st net coord src (decision_msg (d = 1))
  | Prepare | Decision _ -> ()

let part_msg st net node m =
  match m with
  | Prepare ->
    st.got_prepare.(node) <- true;
    if st.decided.(node) <> none then begin
      (* already presumed abort (prepare timeout beat a slow link) *)
      if st.sent_vote.(node) = none then st.sent_vote.(node) <- 0;
      send st net node st.coord (Vote false)
    end
    else vote st net node (not st.vote_no.(node))
  | Decision d ->
    if st.decided.(node) = none then begin
      st.log_decision.(node) <- Bool.to_int d;
      decide st net node d
    end;
    if d then send st net node st.coord Ack
  | Start | Vote _ | Ack | Decision_req -> ()

let on_msg st net ~node ~src m =
  (if tracing st then
     match payload m with
     | Some pl ->
       emit st (Net.now net)
         (Obs.Event.Twopc_delivered { tx = st.tx; src; dst = node; msg = pl })
     | None -> ());
  if node = st.coord then coord_msg st net src m else part_msg st net node m

let on_timer st net ~node ~tag =
  let coord = st.coord in
  if node = coord then begin
    if tag = tag_vote && st.decided.(coord) = none then begin
      timeout st net node tag;
      decide st net coord false;
      broadcast st net false
    end
    else if
      tag = tag_ack && st.decided.(coord) = 1 && (not st.log_end)
      && not (all_acked st 0)
    then begin
      timeout st net node tag;
      for i = 0 to Array.length st.parts - 1 do
        let p = st.parts.(i) in
        if not st.acked.(p) then send st net coord p (Decision true)
      done;
      Net.set_timer net ~node:coord ~tag:tag_ack ~after:st.cfg.t_ack
    end
  end
  else if tag = tag_prepare then begin
    if (not st.got_prepare.(node)) && st.decided.(node) = none then begin
      timeout st net node tag;
      (* never asked to vote: unilateral presumed abort *)
      decide st net node false
    end
  end
  else if tag = tag_decision then
    if st.log_vote.(node) && st.decided.(node) = none then begin
      timeout st net node tag;
      match st.cfg.variant with
      | Presume_commit_on_timeout ->
        (* deliberately broken: unilateral commit while in doubt *)
        decide st net node true
      | Correct | Forget_log_on_recover ->
        send st net node coord Decision_req;
        Net.set_timer net ~node ~tag:tag_decision ~after:st.cfg.t_decision
    end

let on_crash st net ~node =
  if tracing st then
    emit st (Net.now net) (Obs.Event.Node_crashed { tx = st.tx; node });
  st.decided.(node) <- none;
  st.got_prepare.(node) <- false;
  if node = st.coord then begin
    Array.fill st.tally 0 (nodes st) none;
    Array.fill st.acked 0 (nodes st) false
  end

let on_recover st net ~node =
  if tracing st then
    emit st (Net.now net) (Obs.Event.Node_recovered { tx = st.tx; node });
  (match st.cfg.variant with
  | Forget_log_on_recover ->
    st.log_vote.(node) <- false;
    st.log_decision.(node) <- none;
    if node = st.coord then st.log_end <- false
  | Correct | Presume_commit_on_timeout -> ());
  let coord = st.coord in
  let logged = st.log_decision.(node) in
  if node = coord then begin
    if logged <> none then begin
      st.decided.(coord) <- logged;
      if logged = 1 && not st.log_end then begin
        (* volatile acks are gone: re-broadcast until acked again *)
        broadcast st net true;
        Net.set_timer net ~node:coord ~tag:tag_ack ~after:st.cfg.t_ack
      end
    end
    else begin
      (* no commit record: presume abort, and broadcast it so in-doubt
         participants are released without waiting for their polls *)
      decide st net coord false;
      broadcast st net false
    end
  end
  else if logged <> none then st.decided.(node) <- logged
  else if st.log_vote.(node) then begin
    (* in doubt: only the coordinator can say *)
    send st net node coord Decision_req;
    Net.set_timer net ~node ~tag:tag_decision ~after:st.cfg.t_decision
  end
  else decide st net node false

(* Note a non-crash fault in the state; crashes go to the network's
   crash plan. *)
let plan_fault st = function
  | Crash { node; at_input; repair } -> Some (node, at_input, repair)
  | Slow_link { src; dst; extra } ->
    let n = nodes st in
    if src >= 0 && src < n && dst >= 0 && dst < n then
      st.extra.((src * n) + dst) <- extra;
    None
  | Vote_no { node } ->
    if node >= 0 && node < nodes st then st.vote_no.(node) <- true;
    None

let is_slow_link = function Slow_link _ -> true | Crash _ | Vote_no _ -> false

(* The round body behind [round] and [commit]; [keep] says whether the
   round's events and decisions are collected for its record. *)
let run_round ~keep ~sink ~at cfg ~nodes ~coord ~parts ~tx ~seed ~faults =
  if coord < 0 || coord >= nodes then invalid_arg "Twopc.round: coord";
  let parts = Array.of_list parts in
  Array.iter
    (fun p ->
      if p < 0 || p >= nodes || p = coord then
        invalid_arg "Twopc.round: participant out of range")
    parts;
  let st =
    {
      cfg;
      tx;
      coord;
      parts;
      sink;
      at;
      keep;
      events = [];
      decisions = [];
      jitter =
        (if cfg.jitter > 0. then Some (Random.State.make [| 0x27C0; seed; tx |])
         else None);
      extra =
        (if List.exists is_slow_link faults then Array.make (nodes * nodes) 0.
         else [||]);
      vote_no = Array.make nodes false;
      log_vote = Array.make nodes false;
      log_decision = Array.make nodes none;
      log_end = false;
      decided = Array.make nodes none;
      got_prepare = Array.make nodes false;
      tally = Array.make nodes none;
      acked = Array.make nodes false;
      sent_vote = Array.make nodes none;
      vote_time = Array.make nodes nan;
      blocking = 0.;
      decided_at = nan;
    }
  in
  let crashes = List.filter_map (plan_fault st) faults in
  let handlers =
    {
      Net.on_msg = on_msg st;
      on_timer = on_timer st;
      on_crash = on_crash st;
      on_recover = on_recover st;
    }
  in
  let net = Net.create ~nodes ~delay:(delay st) ~crashes ~handlers () in
  (* initial state: participants arm their prepare timeouts, the
     coordinator kicks itself off *)
  for i = 0 to Array.length parts - 1 do
    Net.set_timer net ~node:parts.(i) ~tag:tag_prepare ~after:cfg.t_prepare
  done;
  Net.send net ~src:coord ~dst:coord Start;
  let quiescent = Net.run ~budget:cfg.budget net = `Quiescent in
  (st, net, quiescent)

let opt_of d = if d = none then None else Some (d = 1)

let round ?(sink = Obs.Sink.null) cfg ~nodes ~coord ~parts ~tx ~seed ~faults
    () =
  let st, net, quiescent =
    run_round ~keep:true ~sink ~at:0. cfg ~nodes ~coord ~parts ~tx ~seed ~faults
  in
  {
    tx;
    coord;
    parts;
    faults;
    votes =
      List.filter_map
        (fun p -> Option.map (fun v -> (p, v)) (opt_of st.sent_vote.(p)))
        parts;
    decisions = List.rev st.decisions;
    outcome = opt_of st.decided.(coord);
    quiescent;
    decided_at = st.decided_at;
    finished_at = Net.now net;
    blocking = st.blocking;
    msgs = Net.delivered net;
    crashes = Net.crashes_triggered net;
    node_inputs = Array.init nodes (Net.steps net);
    events = List.rev st.events;
  }

(* ---------- AC1-AC5 ---------- *)

type violation = { ac : int; detail : string }

let check (r : record) =
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

let universe cfg ~n_parts ~seed =
  let nodes = n_parts + 1 and coord = n_parts in
  let parts = List.init n_parts (fun p -> p) in
  let run faults =
    let r = round cfg ~nodes ~coord ~parts ~tx:0 ~seed ~faults () in
    (faults, r, check r)
  in
  let base = run [] in
  let _, br, _ = base in
  let longest =
    List.fold_left max 0.
      [ cfg.t_prepare; cfg.t_vote; cfg.t_decision; cfg.t_ack ]
  in
  (* one repair inside every timeout, one past all of them: both the
     "came right back" and the "everyone timed out first" schedules *)
  let repairs = [ 2.5 *. cfg.delay; (3. *. longest) +. cfg.delay ] in
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

let witness (r : record) violations =
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
  crash_rate : float;
  slow_rate : float;
  rng : Random.State.t;
  shards : int;
  mutable clock : float;
  mutable acc : totals;
}

let service ?(sink = Obs.Sink.null) ?(crash_rate = 0.) ?(slow_rate = 0.)
    ?(seed = 0) ~shards () =
  {
    sink;
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
            default.delay *. (2. +. Random.State.float svc.rng 30.)
          in
          fs := Crash { node; at_input; repair } :: !fs
        end)
      (coord :: parts);
    List.iter
      (fun p ->
        if Random.State.float svc.rng 1.0 < svc.slow_rate then begin
          let extra =
            default.t_decision
            +. Random.State.float svc.rng (2. *. default.t_decision)
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

(* A service round builds no record: its events go to the service's
   sink only, and none is built while that sink is off. *)
let commit svc ~tx ~shards =
  let coord = svc.shards in
  let nodes = svc.shards + 1 in
  let faults = sample_faults svc ~coord ~parts:shards in
  let at =
    max svc.clock (if Obs.Sink.on svc.sink then svc.sink.Obs.Sink.now else 0.)
  in
  let st, net, _ =
    run_round ~keep:false ~sink:svc.sink ~at default ~nodes ~coord
      ~parts:shards ~tx
      ~seed:(Random.State.int svc.rng 0x3FFFFFFF)
      ~faults
  in
  let finished_at = Net.now net in
  svc.clock <- at +. finished_at;
  let ok = st.decided.(coord) = 1 in
  let a = svc.acc in
  svc.acc <-
    {
      rounds = a.rounds + 1;
      committed = (a.committed + if ok then 1 else 0);
      aborted = (a.aborted + if ok then 0 else 1);
      latency_sum =
        (a.latency_sum
        +. if Float.is_nan st.decided_at then finished_at else st.decided_at);
      blocking_sum = a.blocking_sum +. st.blocking;
      blocking_max = Float.max a.blocking_max st.blocking;
      total_msgs = a.total_msgs + Net.delivered net;
      total_crashes = a.total_crashes + Net.crashes_triggered net;
    };
  ok

let totals svc = svc.acc
