open Core

type params = {
  arrival_rate : float;
  exec_time : float;
  sched_time : float;
  seed : int;
}

type result = {
  n_transactions : int;
  makespan : float;
  throughput : float;
  avg_latency : float;
  avg_scheduling : float;
  avg_waiting : float;
  avg_execution : float;
  restarts : int;
  deadlocks : int;
}

let exponential st rate = -.log (1. -. Random.State.float st 1.) /. rate

(* The livelock guard: a stall resolution aborts a victim and retries
   the queue, and if that grants nothing the next resolution follows at
   once, so an engine that refuses every replay would be resolved
   forever. As [Driver.drain] bounds its passes between completions,
   [stall_budget] resolutions without a step completing raise [Stall].
   No run of the test suite or of bench P3 needs more than one in a
   row; the budget is the driver's, for the same margin. *)
let stall_budget n = 20 * (n + 1)

let run ?(sink = Obs.Sink.null) params ~syntax ~scheduler =
  let fmt = Syntax.format syntax in
  let n = Array.length fmt in
  let sched = scheduler () in
  let st = Random.State.make [| params.seed |] in
  (* Poisson arrivals, in transaction order *)
  let t = ref 0. in
  let arrivals =
    Array.init n (fun _ ->
        t := !t +. exponential st params.arrival_rate;
        !t)
  in
  (* Every driver call happens at the virtual time [!clock], which also
     stamps the caller's sink: the engine's own events and, through
     [stamped], the driver's. The one scheduler is a FIFO server free
     from [!server]. *)
  let clock = ref 0. and server = ref 0. in
  let tick t =
    clock := t;
    Obs.Sink.set_now sink t
  in
  let stamped =
    { sink with Obs.Sink.emit = (fun _ ev -> Obs.Sink.record sink ev) }
  in
  (* Phases. While a granted step executes its transaction is
     [Executing]; otherwise it is in [bg]: [Scheduling] while a request
     is queued or being decided, [Waiting] after a refusal. After an
     abort the driver replays granted steps while earlier ones still
     execute, so an execution's end, known at its grant, is entered
     lazily by [settle], before the transaction's next phase change. *)
  let spans = Obs.Span.create n in
  let bg = Array.make n Obs.Span.Scheduling and ends = Array.make n infinity in
  let settle i =
    if ends.(i) <= !clock then begin
      Obs.Span.enter spans i ~now:ends.(i) bg.(i);
      ends.(i) <- infinity
    end
  in
  let phase i p =
    settle i;
    bg.(i) <- p;
    if ends.(i) = infinity then Obs.Span.enter spans i ~now:!clock p
  in
  (* a grant or an abort sends the driver back over its queue: every
     refused request, the aborted one's too, awaits a decision again *)
  let unpark () =
    Array.iteri
      (fun i p -> if p = Obs.Span.Waiting then phase i Obs.Span.Scheduling)
      bg
  in
  (* step completions, in time order: decisions are served in time order
     and each execution takes [exec_time] *)
  let completions = Queue.create () in
  let attempt (id : Names.step_id) =
    tick (Float.max !clock !server);
    phase id.Names.tx Obs.Span.Scheduling;
    server := !clock +. params.sched_time;
    tick !server;
    let r = sched.Sched.Scheduler.attempt id in
    if r = Sched.Scheduler.Delay then phase id.Names.tx Obs.Span.Waiting;
    r
  in
  let commit (id : Names.step_id) =
    sched.Sched.Scheduler.commit id;
    let i = id.Names.tx in
    settle i;
    Obs.Span.enter spans i ~now:!clock Obs.Span.Executing;
    bg.(i) <- Obs.Span.Scheduling;
    ends.(i) <- !clock +. params.exec_time;
    Queue.add (ends.(i), i, id.Names.idx) completions;
    unpark ()
  in
  let on_abort i =
    unpark ();
    sched.Sched.Scheduler.on_abort i
  in
  let driver =
    Sched.Driver.create ~sink:stamped
      (Sched.Scheduler.make ~name:sched.Sched.Scheduler.name ~attempt ~commit
         ~on_abort ~victim:sched.Sched.Scheduler.victim ())
      ~fmt
  in
  (* [submitted.(i)] steps of [i] were submitted; the last one's
     completion submits the next step or ends the transaction *)
  let submitted = Array.make n 0 in
  let submit i =
    submitted.(i) <- submitted.(i) + 1;
    Sched.Driver.submit driver i
  in
  let live = ref 0 and makespan = ref 0. in
  let finish i =
    decr live;
    Obs.Span.finish spans i ~now:!clock;
    makespan := Float.max !makespan !clock
  in
  let next = ref 0 and stalls = ref 0 in
  let rec loop () =
    let due =
      match Queue.peek_opt completions with
      | Some (t, _, _) -> t
      | None -> infinity
    in
    if due = infinity && !live > 0 then begin
      (* every open request is queued and refused, and no arrival can
         grant one: the stall is resolved at once *)
      incr stalls;
      if !stalls > stall_budget n then
        raise
          (Sched.Driver.Stall
             (Printf.sprintf
                "des: scheduler %s livelocked (budget exhausted: %d stall \
                 resolutions without a step completing)"
                sched.Sched.Scheduler.name (stall_budget n)));
      tick (Float.max !clock !server);
      Sched.Driver.resolve_stall driver;
      loop ()
    end
    else if !next < n && arrivals.(!next) <= due then begin
      let i = !next in
      incr next;
      incr live;
      tick arrivals.(i);
      Obs.Span.enter spans i ~now:!clock Obs.Span.Scheduling;
      if fmt.(i) = 0 then finish i else submit i;
      loop ()
    end
    else if due < infinity then begin
      let t, i, idx = Queue.pop completions in
      stalls := 0;
      tick t;
      if idx = submitted.(i) - 1 then
        if submitted.(i) = fmt.(i) then finish i else submit i;
      loop ()
    end
  in
  loop ();
  let stats = Sched.Driver.drain driver in
  let total = Obs.Span.totals spans in
  let fn = float_of_int n in
  {
    n_transactions = n;
    makespan = !makespan;
    throughput = (if !makespan > 0. then fn /. !makespan else 0.);
    avg_latency = total.Obs.Span.elapsed /. fn;
    avg_scheduling = total.Obs.Span.scheduling /. fn;
    avg_waiting = total.Obs.Span.waiting /. fn;
    avg_execution = total.Obs.Span.execution /. fn;
    restarts = stats.Sched.Driver.restarts;
    deadlocks = stats.Sched.Driver.deadlocks;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "n=%d makespan=%.2f thru=%.3f latency=%.2f = sched %.2f + wait %.2f + \
     exec %.2f  (restarts %d, deadlocks %d)"
    r.n_transactions r.makespan r.throughput r.avg_latency r.avg_scheduling
    r.avg_waiting r.avg_execution r.restarts r.deadlocks
