open Core

type stats = {
  output : Schedule.t;
  delays : int;
  restarts : int;
  deadlocks : int;
  waiting : int;
  grants : int;
  aborts : int array;
}

let zero_delay s = s.delays = 0 && s.restarts = 0

exception Stall of string

type state = {
  sched : Scheduler.t;
  sink : Obs.Sink.t;
  fmt : int array;
  next_step : int array;       (* next step index, current incarnation *)
  outstanding : int array;     (* submitted but ungranted requests *)
  incarnation : int array;
  (* fixed seniority: [by_rank.(r)] is the [r]-th transaction to arrive,
     for [r < arrived]; restarts keep their rank *)
  by_rank : int array;
  mutable arrived : int;
  blocked : Intq.t;            (* FIFO of delayed transactions *)
  (* every queued request is one of the engine's standing refusals, as
     the last pass found and no abort or queueing has undone since *)
  mutable quiet : bool;
  mutable open_txns : int;     (* transactions not [completed] *)
  mutable clock : int;         (* driver events *)
  (* the grant log: grant g's transaction at slot g, with room for 16
     grants at first and doubled when full; the incarnation and step
     index are implied (see [drain]) *)
  mutable log : int array;
  mutable delays : int;
  mutable restarts : int;
  mutable deadlocks : int;
  (* the sum over grants of the grant's clock less one, less the sum
     over submissions of the submission's clock: [stats.waiting] once
     every submitted request is granted *)
  mutable waiting : int;
  mutable grants : int;
}

let init sched sink fmt =
  let n = Array.length fmt in
  {
    sched;
    sink;
    fmt;
    next_step = Array.make n 0;
    outstanding = Array.make n 0;
    incarnation = Array.make n 0;
    by_rank = Array.make n 0;
    arrived = 0;
    blocked = Intq.create n;
    quiet = false;
    open_txns = Array.fold_left (fun k f -> if f > 0 then k + 1 else k) 0 fmt;
    clock = 0;
    log = Array.make 16 0;
    delays = 0;
    restarts = 0;
    deadlocks = 0;
    waiting = 0;
    grants = 0;
  }

let in_queue st i = Intq.mem st.blocked i
let enqueue st i = Intq.push st.blocked i
let dequeue st i = Intq.remove st.blocked i

let completed st i =
  st.next_step.(i) >= st.fmt.(i) && st.outstanding.(i) = 0

(* [i]'s next request is one of the engine's standing refusals. *)
let stands st standing i =
  Array.length standing > 0
  && standing.(i) = st.next_step.(i)
  && st.outstanding.(i) > 0

let do_abort st ~reason i =
  st.restarts <- st.restarts + 1;
  (* [on_abort] may withdraw any transaction's refusal *)
  st.quiet <- false;
  if completed st i then st.open_txns <- st.open_txns + 1;
  if Obs.Sink.on st.sink then begin
    Obs.Sink.record st.sink (Obs.Event.Aborted { tx = i; reason });
    Obs.Sink.record st.sink (Obs.Event.Restarted { tx = i })
  end;
  st.sched.Scheduler.on_abort i;
  (* every already-granted step must be requested again *)
  let granted = st.next_step.(i) in
  st.next_step.(i) <- 0;
  st.outstanding.(i) <- st.outstanding.(i) + granted;
  st.waiting <- st.waiting - (granted * st.clock);
  if Obs.Sink.on st.sink then
    for k = 0 to granted - 1 do
      Obs.Sink.record st.sink (Obs.Event.Submitted { tx = i; idx = k })
    done;
  st.incarnation.(i) <- st.incarnation.(i) + 1

let log_grant st i =
  let at = st.grants in
  if at = Array.length st.log then begin
    let grown = Array.make (2 * at) 0 in
    Array.blit st.log 0 grown 0 at;
    st.log <- grown
  end;
  st.log.(at) <- i

let do_grant st (id : Names.step_id) =
  (* [Granted] is stamped at the decision instant, [Executed] one tick
     later: the driver's clock tick is the grant being carried out, so
     the trace shows one event of execution time per grant *)
  if Obs.Sink.on st.sink then
    Obs.Sink.record st.sink
      (Obs.Event.Granted { tx = id.Names.tx; idx = id.Names.idx });
  st.sched.Scheduler.commit id;
  st.clock <- st.clock + 1;
  if Obs.Sink.on st.sink then Obs.Sink.set_now st.sink (float_of_int st.clock);
  log_grant st id.Names.tx;
  st.grants <- st.grants + 1;
  st.waiting <- st.waiting + (st.clock - 1);
  st.next_step.(id.Names.tx) <- id.Names.idx + 1;
  st.outstanding.(id.Names.tx) <- st.outstanding.(id.Names.tx) - 1;
  let committed = completed st id.Names.tx in
  if committed then st.open_txns <- st.open_txns - 1;
  if Obs.Sink.on st.sink then begin
    Obs.Sink.record st.sink
      (Obs.Event.Executed { tx = id.Names.tx; idx = id.Names.idx });
    if committed then
      Obs.Sink.record st.sink (Obs.Event.Committed { tx = id.Names.tx })
  end

(* Grant as many outstanding requests of [i] as possible. Returns true
   if at least one step was granted. *)
let try_drain st i =
  let made_progress = ref false in
  let continue = ref true in
  while !continue && st.outstanding.(i) > 0 do
    let id = { Names.tx = i; idx = st.next_step.(i) } in
    match st.sched.Scheduler.attempt id with
    | Scheduler.Grant ->
      do_grant st id;
      made_progress := true
    | Scheduler.Delay ->
      st.delays <- st.delays + 1;
      if Obs.Sink.on st.sink then
        Obs.Sink.record st.sink
          (Obs.Event.Delayed { tx = i; idx = st.next_step.(i) });
      enqueue st i;
      if not (stands st st.sched.Scheduler.standing i) then st.quiet <- false;
      continue := false
    | Scheduler.Abort ->
      do_abort st ~reason:Obs.Event.Scheduler_abort i;
      (* retried on a later scan, after the transactions it yielded to *)
      dequeue st i;
      enqueue st i;
      made_progress := true;
      continue := false
  done;
  if st.outstanding.(i) = 0 then dequeue st i;
  !made_progress

(* The first [k] queued requests are standing refusals, each a delay:
   counted at once, and with the sink on traced one [Delayed] per entry
   in queue order, as a pass over them would. *)
let rec trace_standing st k i =
  if k > 0 then begin
    Obs.Sink.record st.sink (Obs.Event.Delayed { tx = i; idx = st.next_step.(i) });
    trace_standing st (k - 1) (Intq.next st.blocked i)
  end

let delay_standing st k =
  st.delays <- st.delays + k;
  if Obs.Sink.on st.sink then trace_standing st k (Intq.head st.blocked)

(* One pass over the FIFO queue from [i]; [run] counts the entries
   before [i] in this pass, all standing refusals (a fresh refusal the
   engine now publishes included), or is -1 once one of them does not
   stand. A standing refusal is answered here, exactly as
   [try_drain] would answer its [Delay] (a delay counted and traced, the
   queue untouched), without asking the engine. True when the pass must
   restart from the head; false when it ends with no progress, which
   marks the queue quiet if it saw only standing refusals.

   After a grant with no abort, the [run] entries before [i] still
   stand: a refusal stands until [on_abort] withdraws it, and neither a
   grant's [attempt] nor its [commit] touches another transaction's
   entry. A pass from the head would count each of them as a delay and
   come back to [i], so the pass counts them and resumes at [i] (at its
   successor, if [i] left the queue): only the questions are paid for.
   After an abort, or when an entry before [i] does not stand, it
   restarts. The cursor walk is safe without a snapshot: [try_drain]
   moves only [i] in the queue, and only an abort moves it anywhere but
   out. *)
let rec pass st standing run i =
  if i < 0 then begin
    if run >= 0 then st.quiet <- true;
    false
  end
  else begin
    let nxt = Intq.next st.blocked i in
    if stands st standing i then begin
      st.delays <- st.delays + 1;
      if Obs.Sink.on st.sink then
        Obs.Sink.record st.sink
          (Obs.Event.Delayed { tx = i; idx = st.next_step.(i) });
      pass st standing (if run >= 0 then run + 1 else run) nxt
    end
    else begin
      let restarts = st.restarts in
      if not (try_drain st i) then
        pass st standing (if run >= 0 && stands st standing i then run + 1 else -1) nxt
      else if run >= 0 && st.restarts = restarts then begin
        delay_standing st run;
        pass st standing run (if in_queue st i then i else nxt)
      end
      else true
    end
  end

(* Pass over the queue until a full pass yields nothing. A quiet queue
   would yield one delay per entry and nothing else, so it is counted,
   not walked. *)
let process_queue st =
  if st.quiet then delay_standing st (Intq.length st.blocked)
  else begin
    let standing = st.sched.Scheduler.standing in
    while pass st standing 0 (Intq.head st.blocked) do
      ()
    done
  end

(* Victim priority is wound-wait style: seniority is fixed at a
   transaction's first arrival and survives restarts, and the stuck list
   is presented youngest-first.  A scheduler that honours the order (the
   default [victim] takes the head; [Tpl_sched] picks the youngest member
   of the wait-for cycle) never aborts the oldest live transaction, so
   the oldest always completes and the drain loop terminates instead of
   rotating abort victims round-robin forever. The list is a seniority
   walk, not a sort: oldest to youngest over [by_rank], consing every
   queued transaction with an outstanding request, so the youngest ends
   up first. *)
let resolve_stall st =
  let stuck = ref [] in
  for r = 0 to st.arrived - 1 do
    let i = st.by_rank.(r) in
    if st.outstanding.(i) > 0 && in_queue st i then stuck := i :: !stuck
  done;
  let stuck = !stuck in
  match st.sched.Scheduler.victim stuck with
  | Some v ->
    st.deadlocks <- st.deadlocks + 1;
    do_abort st ~reason:Obs.Event.Deadlock v;
    (* the victim yields: everyone it was blocking goes first in the
       queue retry *)
    dequeue st v;
    enqueue st v;
    process_queue st
  | None ->
    raise
      (Stall
         (Printf.sprintf "driver: scheduler %s cannot resolve a stall"
            st.sched.Scheduler.name))

(* ---------- incremental interface ---------- *)

(* [drain]'s output filler. [Array.make] of more than 256 slots whose
   initial value is a block in the minor heap runs a minor collection
   first (the runtime's [caml_make_vect] will not point a major-heap
   array at a young value), so the filler is a static constant: a fresh
   [Names.step 0 0] would force that collection in every drain of a
   batch over 256 steps. *)
let filler = { Names.tx = 0; idx = 0 }

type t = state

let create ?(sink = Obs.Sink.null) sched ~fmt = init sched sink fmt

(* One arrival: clock tick, seniority stamp, request bookkeeping, then
   grant whatever the new request unblocks. Identical to one iteration
   of the old monolithic run loop — [run] below is a composition, not a
   reimplementation, so every engine built on [submit]/[drain] inherits
   the exact single-threaded semantics. *)
let submit st i =
  if st.next_step.(i) + st.outstanding.(i) >= st.fmt.(i) then
    invalid_arg
      (Printf.sprintf "Driver.submit: transaction %d has no step left to request" i);
  st.clock <- st.clock + 1;
  if Obs.Sink.on st.sink then Obs.Sink.set_now st.sink (float_of_int st.clock);
  (* a first arrival: nothing submitted, granted or aborted before *)
  if st.outstanding.(i) = 0 && st.next_step.(i) = 0 && st.incarnation.(i) = 0
  then begin
    st.by_rank.(st.arrived) <- i;
    st.arrived <- st.arrived + 1
  end;
  st.outstanding.(i) <- st.outstanding.(i) + 1;
  st.waiting <- st.waiting - st.clock;
  if Obs.Sink.on st.sink then
    Obs.Sink.record st.sink
      (Obs.Event.Submitted
         { tx = i; idx = st.next_step.(i) + st.outstanding.(i) - 1 });
  if in_queue st i then ()
  else if try_drain st i then process_queue st

(* The livelock guard bounds the passes between completions: no abort
   in [drain] undoes a completion (its victims all have a request
   outstanding), so [open_txns] only falls, and a drain that runs
   [gap_budget] passes without it falling is livelocked. The largest
   gap measured is 26 passes at n = 15 (1.6 per transaction): the
   driver suite's abort-heavy corpus under every registered engine. The
   bench workloads never pass 2. The budget leaves a margin above 12
   on each. *)
let gap_budget n = 20 * (n + 1)

let drain st =
  let n = Array.length st.fmt in
  let gap = ref 0 and open_txns = ref st.open_txns and stalled = ref false in
  while st.open_txns > 0 do
    if st.open_txns < !open_txns then begin
      open_txns := st.open_txns;
      gap := 0
    end;
    incr gap;
    if !gap > gap_budget n then
      raise
        (Stall
           (Printf.sprintf
              "driver: scheduler %s livelocked (budget exhausted: %d passes \
               without a completion)"
              st.sched.Scheduler.name (gap_budget n)));
    let before = st.grants in
    if !stalled then resolve_stall st else process_queue st;
    stalled := st.grants = before
  done;
  (* every transaction completed: its last incarnation granted each of
     its steps once, in index order, and no grant of it came later. So
     walking the log backwards, a transaction's first [fmt.(i)] grants
     are its last incarnation's, met from its last step down, and the
     output fills from its end *)
  let left = Array.copy st.fmt in
  let k = ref (Array.fold_left ( + ) 0 st.fmt) in
  let output = Array.make !k filler in
  for g = st.grants - 1 downto 0 do
    let i = st.log.(g) in
    if left.(i) > 0 then begin
      left.(i) <- left.(i) - 1;
      decr k;
      output.(!k) <- Names.step i left.(i)
    end
  done;
  {
    output;
    delays = st.delays;
    restarts = st.restarts;
    deadlocks = st.deadlocks;
    waiting = st.waiting;
    grants = st.grants;
    aborts = Array.copy st.incarnation;
  }

let run ?sink sched ~fmt ~arrivals =
  let st = create ?sink sched ~fmt in
  Array.iter (submit st) arrivals;
  drain st

let fixpoint_of mk fmt =
  List.filter
    (fun h ->
      let s = run (mk ()) ~fmt ~arrivals:(Schedule.to_interleaving h) in
      zero_delay s && Schedule.equal s.output h)
    (Schedule.all fmt)

let zero_delay_fraction mk ~fmt ~samples ~seed =
  if samples < 1 then
    invalid_arg (Printf.sprintf "samples must be at least 1, got %d" samples);
  let stt = Random.State.make [| seed |] in
  let hits = ref 0 in
  for _ = 1 to samples do
    let arrivals = Combin.Interleave.random stt fmt in
    let s = run (mk ()) ~fmt ~arrivals in
    if zero_delay s then incr hits
  done;
  float_of_int !hits /. float_of_int samples
