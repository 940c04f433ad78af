(** Message-passing discrete-event network simulator — the distributed
    extension of the central-scheduler DES ([Sim.Des]), living on the
    scheduler side of the dependency arrow so protocol layers
    ({!Twopc}) can both use it and be used by the engines.

    A network is a fixed set of nodes exchanging typed messages over
    links with per-link delivery delays, under a crash plan. Three kinds
    of events drive it, drained from a single time-ordered queue with a
    deterministic sequence-number tie-break (exactly the [Sim.Des]
    discipline, so equal-time events process in schedule order):

    - {e delivery}: a message sent at [t] over link [(src, dst)]
      arrives at [t + delay ~src ~dst]; deliveries to a crashed node
      are dropped on the floor (fail-stop, no buffering in the wire);
    - {e timer}: a node's own alarm; crashes invalidate all of the
      node's pending timers (an epoch counter, so stale alarms of a
      previous incarnation never fire into the new one);
    - {e recovery}: scheduled [repair] after a crash; the node comes
      back empty-handed (volatile state and timers gone) and its
      [on_recover] handler runs — persistent state is whatever the
      protocol layer kept outside the handlers.

    Crashes are {e input-indexed}: a plan entry [(node, s, repair)]
    fells the node at the instant it would process its [s]-th input
    (message or timer), losing that input — "crash before the s-th
    step". Input indexing makes exhaustive single-fault enumeration
    finite and exact: a baseline run counts each node's inputs, and
    every placement [0 .. steps n] is a distinct observable schedule,
    which wall-clock-indexed crashes cannot guarantee.

    Handlers run atomically: a node processes one input, updates its
    state and sends/arms as one indivisible step (the forced-log
    assumption of {!Twopc} — a log write and the send it guards cannot
    be separated by a crash). *)

type 'msg t

type 'msg handlers = {
  on_msg : 'msg t -> node:int -> src:int -> 'msg -> unit;
  on_timer : 'msg t -> node:int -> tag:int -> unit;
  on_crash : 'msg t -> node:int -> unit;
      (** the node just went down (volatile state should be dropped by
          the protocol layer; the kernel already cleared its timers) *)
  on_recover : 'msg t -> node:int -> unit;
}

val create :
  nodes:int ->
  delay:(src:int -> dst:int -> float) ->
  ?crashes:(int * int * float) list ->
  handlers:'msg handlers ->
  unit ->
  'msg t
(** [crashes] is the crash plan: [(node, at_input, repair)] — at most
    one pending crash per node is armed at a time; multiple entries for
    one node trigger in input order. [delay] is sampled at send time
    (it may consult a jitter source). *)

val now : _ t -> float

val steps : _ t -> int -> int
(** Inputs (messages + timers) the node has processed so far — the
    index space of the crash plan. *)

val crashes_triggered : _ t -> int
val delivered : _ t -> int
(** Messages actually delivered (dropped sends excluded). *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a delivery at [now + delay ~src ~dst]. Self-sends are
    allowed (the round kick-off uses one). Sends from a dead node are
    dropped (they model messages "in the NIC" of a crashed sender). *)

val set_timer : 'msg t -> node:int -> tag:int -> after:float -> unit
(** Arm an alarm; it fires via [on_timer] unless the node crashes
    first. Timers do not auto-repeat — re-arm from the handler. *)

val run : ?budget:int -> 'msg t -> [ `Quiescent | `Budget_exhausted ]
(** Drain the queue. [`Quiescent] means no event remains anywhere — the
    protocol terminated; [`Budget_exhausted] (default budget 100_000
    processed events) is the livelock backstop, and a liveness (AC5)
    violation when a protocol hits it. *)
