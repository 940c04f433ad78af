(** Two-phase commit with presumed abort over the message-passing
    network simulator ({!Net}): the distributed atomic-commit layer the
    sharded engine routes cross-shard commits through.

    {2 Protocol}

    A commit round for transaction [tx] runs over a cluster of
    [nodes] fail-stop nodes: the involved shards as {e participants}
    and one {e coordinator}. Four message rounds:

    + {e prepare}: the coordinator sends [Prepare] to every
      participant and arms its vote timeout;
    + {e vote}: a participant force-writes a vote record to its
      persistent log and answers [Vote yes] (entering its {e in-doubt}
      window), or answers [Vote no] and aborts unilaterally — no log
      needed, absence of a vote record means abort;
    + {e decide}: on all-yes the coordinator force-writes a commit
      record, decides, and sends [Decision commit] to every
      participant; on any no — or on vote timeout — it decides abort
      {e without logging} (presumed abort) and broadcasts
      [Decision abort];
    + {e ack}: participants acknowledge a commit decision; the
      coordinator re-sends the decision on its ack timeout until all
      acks are in, then writes a (lazy) end record and stops.

    Recovery is log-driven: a restarting participant with a decision
    record reloads it; with only a vote record it is in doubt and polls
    the coordinator with [Decision_req]; with an empty log it presumes
    abort. A restarting coordinator with a commit record re-broadcasts
    it; with no record it presumes abort and proactively broadcasts the
    abort. An in-doubt participant's decision timeout re-polls forever
    (blocking — the measured cost of 2PC): under eventual delivery and
    eventual recovery every node eventually decides.

    Crashes cannot split a log write from the send it guards: a
    {!Net} handler step is atomic, which is exactly the forced-write
    ("log before send") assumption of the textbook protocol.

    {2 Verification}

    {!check} is the executable AC1–AC5 atomic-commitment checker
    (Bernstein–Hadzilacos–Goodman numbering):

    - {b AC1} {e agreement}: no two nodes decide differently;
    - {b AC2} {e irreversibility}: no node decides twice differently;
    - {b AC3} {e validity}: a commit decision implies every participant
      voted yes;
    - {b AC4} {e non-triviality}: a fault-free round commits;
    - {b AC5} {e liveness}: the round quiesces and every involved node
      decides.

    {!universe} enumerates every single-fault placement — a crash of
    each involved node before each of its baseline protocol inputs, at
    a repair both shorter and longer than every timeout, plus each
    no-vote and each timeout-forcing slow link — and checks each round,
    so for small clusters the checker's verdict is exhaustive over
    single faults, not sampled. *)

type fault =
  | Crash of { node : int; at_input : int; repair : float }
      (** fail-stop before the node's [at_input]-th protocol input
          (input-indexed, see {!Net}); back after [repair] time units *)
  | Slow_link of { src : int; dst : int; extra : float }
      (** add [extra] to every delivery on the link — the way to force
          a specific timeout without killing anyone *)
  | Vote_no of { node : int }  (** the participant votes no *)

type variant =
  | Correct
  | Forget_log_on_recover
      (** deliberately broken: recovery wipes the persistent log, so a
          recovered yes-voter presumes abort while the coordinator may
          have committed — the checker must reject this (AC1) *)
  | Presume_commit_on_timeout
      (** deliberately broken: an in-doubt participant unilaterally
          commits on its decision timeout (AC1/AC3) *)

type config = {
  delay : float;  (** base one-way link delay *)
  jitter : float;  (** uniform extra delay in [0, jitter), per delivery *)
  t_prepare : float;  (** participant: no [Prepare] yet → abort *)
  t_vote : float;  (** coordinator: votes missing → presumed abort *)
  t_decision : float;  (** in-doubt participant: poll [Decision_req] *)
  t_ack : float;  (** coordinator: acks missing → re-send decision *)
  variant : variant;
  budget : int;  (** network event budget per round (AC5 backstop) *)
}

val default : config
(** [delay = 1.0], no jitter, timeouts several round trips out
    ([t_prepare = t_vote = 8.0], [t_decision = t_ack = 6.0]),
    [Correct], budget 100_000. *)

type record = {
  tx : int;
  coord : int;
  parts : int list;
  faults : fault list;
  votes : (int * bool) list;
      (** first vote each participant sent (ground truth for AC3,
          collected at the sender — the coordinator's tally is volatile) *)
  decisions : (float * int * bool) list;
      (** every fresh decision event [(time, node, commit)] in time
          order; silent log reloads after recovery are not events *)
  outcome : bool option;  (** the coordinator's decision *)
  quiescent : bool;  (** the network drained within budget *)
  decided_at : float;  (** coordinator's decision time; [nan] if none *)
  finished_at : float;  (** virtual time at quiescence (or budget) *)
  blocking : float;
      (** max over participants of first-decision time minus yes-vote
          time — the round's in-doubt (blocking) window *)
  msgs : int;  (** messages delivered *)
  crashes : int;  (** crash-plan entries that actually triggered *)
  node_inputs : int array;
      (** per node, protocol inputs processed — the crash-placement
          index space used by {!universe} *)
  events : (float * Obs.Event.t) list;
      (** the round's own trace (also emitted to the sink when given)
          — the witness a violation replays. Only
          {!round} builds it: a service round ({!commit}) keeps no
          record *)
}

val round :
  ?sink:Obs.Sink.t ->
  config ->
  nodes:int ->
  coord:int ->
  parts:int list ->
  tx:int ->
  seed:int ->
  faults:fault list ->
  unit ->
  record
(** Run one commit round, its trace timestamped from [0.]. [seed]
    drives delivery jitter only —
    with [jitter = 0.] a round is a deterministic function of its
    fault list. Raises [Invalid_argument] if [coord] or a participant
    is out of range, or a participant equals [coord]. *)

type violation = { ac : int; detail : string }

val check : record -> violation list
(** AC1–AC5 over a finished round; empty = conforming. *)

val universe :
  config ->
  n_parts:int ->
  seed:int ->
  (fault list * record * violation list) list
(** The exhaustive single-fault micro-universe over a cluster of
    [n_parts] participants plus coordinator ([coord = n_parts],
    [tx = 0]): the fault-free baseline, then every single-fault
    placement derived from the baseline's input counts (crashes at
    every input of every involved node × two repairs, one below and one
    above every timeout — plus every
    [Vote_no] and every timeout-forcing [Slow_link]). Each round is
    paired with its {!check} result. *)

val pp_fault : Format.formatter -> fault -> unit
val pp_violation : Format.formatter -> violation -> unit

val witness : record -> violation list -> string
(** Human-replayable reproduction: the round's parameters and fault
    list, the violated properties, and the full event trace. *)

(** {2 Commit service for the sharded engine}

    A persistent cluster of [shards] participant nodes plus a
    coordinator; each [commit] call runs one round over the calling
    transaction's shard subset, with faults sampled per round from the
    configured rates. With zero rates ({e no_faults}) every round is
    the fault-free happy path and commits — decision-identical to the
    engine without 2PC. *)

type service

type totals = {
  rounds : int;
  committed : int;
  aborted : int;
  latency_sum : float;
      (** Σ round start → coordinator decision, virtual time *)
  blocking_sum : float;  (** Σ per-round blocking windows *)
  blocking_max : float;
  total_msgs : int;
  total_crashes : int;
}

val service :
  ?sink:Obs.Sink.t ->
  ?crash_rate:float ->
  ?slow_rate:float ->
  ?seed:int ->
  shards:int ->
  unit ->
  service
(** A service runs every round under {!default}. [crash_rate] is per
    involved node per round (coordinator included);
    [slow_rate] per participant link per round. Both default to [0.] —
    the no-fault service. A service round emits its events to [sink]
    only, and builds none while [sink] is off (the default): it
    allocates its round state and its messages, nothing per event. *)

val commit : service -> tx:int -> shards:int list -> bool
(** Run a commit round for [tx] over participant set [shards]; [true]
    iff the coordinator decided commit. Shaped for
    [Sharded.create ~commit_cross]. *)

val totals : service -> totals
